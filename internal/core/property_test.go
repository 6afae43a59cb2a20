package core

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// TestTransactionsMatchSequentialModel drives random static transactions
// (random data sets, random update kinds) against a model vector on a
// single goroutine. Uncontended attempts must always commit on the first
// try, return the model's old values, and leave memory equal to the model.
func TestTransactionsMatchSequentialModel(t *testing.T) {
	const size = 10
	m := mustMemory(t, size)
	model := make([]uint64, size)

	step := func(rawSet []uint8, kind uint8, operand uint64) bool {
		if len(rawSet) == 0 {
			return true
		}
		// Build a sorted, duplicate-free data set.
		seen := map[int]bool{}
		var addrs []int
		for _, r := range rawSet {
			loc := int(r) % size
			if !seen[loc] {
				seen[loc] = true
				addrs = append(addrs, loc)
			}
		}
		sort.Ints(addrs)

		var f updateFunc
		switch kind % 4 {
		case 0: // add operand to every word
			f = func(old []uint64) []uint64 {
				nv := make([]uint64, len(old))
				for i, v := range old {
					nv[i] = v + operand
				}
				return nv
			}
		case 1: // reverse the words
			f = func(old []uint64) []uint64 {
				nv := make([]uint64, len(old))
				for i, v := range old {
					nv[len(old)-1-i] = v
				}
				return nv
			}
		case 2: // overwrite with operand
			f = func(old []uint64) []uint64 {
				nv := make([]uint64, len(old))
				for i := range nv {
					nv[i] = operand
				}
				return nv
			}
		default: // guarded: increment only if first word is even
			f = func(old []uint64) []uint64 {
				nv := make([]uint64, len(old))
				copy(nv, old)
				if old[0]%2 == 0 {
					for i := range nv {
						nv[i]++
					}
				}
				return nv
			}
		}

		old, ok := tryOnce(m, addrs, f)
		if !ok {
			t.Fatal("uncontended attempt failed")
		}
		// Old values must match the model.
		modelOld := make([]uint64, len(addrs))
		for i, loc := range addrs {
			modelOld[i] = model[loc]
			if old[i] != model[loc] {
				t.Fatalf("old[%d] = %d, model %d", i, old[i], model[loc])
			}
		}
		// Apply to the model and compare all of memory.
		nv := f(modelOld)
		for i, loc := range addrs {
			model[loc] = nv[i]
		}
		for loc := 0; loc < size; loc++ {
			if m.Peek(loc) != model[loc] {
				t.Fatalf("memory[%d] = %d, model %d", loc, m.Peek(loc), model[loc])
			}
		}
		return true
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestOverlappingAddsCommute runs concurrent transactions with random
// overlapping data sets, all performing additions. Additions commute, so
// the final memory must equal the per-word sum of every committed delta —
// atomicity with overlap, not just exactness on one word.
func TestOverlappingAddsCommute(t *testing.T) {
	const (
		size    = 8
		workers = 6
		ops     = 500
	)
	m := mustMemory(t, size)
	expected := make([][]uint64, workers) // per-worker per-word committed sums
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		expected[w] = make([]uint64, size)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < ops; i++ {
				// Random ascending set of 1..3 words.
				k := next(3) + 1
				seen := map[int]bool{}
				var addrs []int
				for len(addrs) < k {
					loc := next(size)
					if !seen[loc] {
						seen[loc] = true
						addrs = append(addrs, loc)
					}
				}
				sort.Ints(addrs)
				delta := uint64(next(100))
				f := func(old []uint64) []uint64 {
					nv := make([]uint64, len(old))
					for j, v := range old {
						nv[j] = v + delta
					}
					return nv
				}
				for {
					if _, ok := tryOnce(m, addrs, f); ok {
						break
					}
				}
				for _, loc := range addrs {
					expected[w][loc] += delta
				}
			}
		}(w)
	}
	wg.Wait()

	for loc := 0; loc < size; loc++ {
		var want uint64
		for w := 0; w < workers; w++ {
			want += expected[w][loc]
		}
		if got := m.Peek(loc); got != want {
			t.Errorf("word %d = %d, want %d", loc, got, want)
		}
	}
}
