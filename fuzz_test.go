package stm_test

// Native fuzz targets. `go test` runs the seed corpus as regular tests;
// `go test -fuzz=FuzzCASN .` explores further.

import (
	"sort"
	"testing"

	stm "github.com/stm-go/stm"
)

// FuzzPrepare checks Prepare against the data-set rule for arbitrary
// inputs: it accepts exactly the non-empty, strictly ascending, in-bounds
// address lists, and a Tx it returns runs over those words.
func FuzzPrepare(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(8))
	f.Add([]byte{5, 5}, uint8(8))
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{255, 0, 17, 3}, uint8(32))

	f.Fuzz(func(t *testing.T, raw []byte, sizeRaw uint8) {
		size := int(sizeRaw)%64 + 1
		m, err := stm.New(size)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]int, len(raw))
		for i, b := range raw {
			addrs[i] = int(b) // may be out of range: must be rejected, not panic
		}
		valid := len(addrs) > 0
		for i, a := range addrs {
			if a >= size || (i > 0 && addrs[i-1] >= a) {
				valid = false
			}
		}
		tx, err := m.Prepare(addrs)
		if (err == nil) != valid {
			t.Fatalf("Prepare(%v) over %d words = %v, want accepted=%v", addrs, size, err, valid)
		}
		if err != nil {
			return
		}
		tx.RunInto(func(o, n []uint64) {
			for i := range n {
				n[i] = o[i] + uint64(addrs[i]) + 1
			}
		}, nil)
		for _, a := range addrs {
			if got := m.Peek(a); got != uint64(a)+1 {
				t.Fatalf("word %d = %d after one run, want %d", a, got, a+1)
			}
		}
	})
}

// FuzzCASN checks the k-word compare-and-swap against a model vector for
// arbitrary operation streams.
func FuzzCASN(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{1, 0, 1})
	f.Add([]byte{9, 9, 9}, []byte{0})

	f.Fuzz(func(t *testing.T, rawAddrs, rawVals []byte) {
		const size = 8
		m, err := stm.New(size)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]uint64, size)

		// Interpret the bytes as a stream of CASN ops over ascending address
		// sets.
		for start := 0; start+1 < len(rawAddrs); start += 2 {
			k := int(rawAddrs[start])%3 + 1
			seen := map[int]bool{}
			var addrs []int
			for j := 0; j < k && start+1+j < len(rawAddrs); j++ {
				loc := int(rawAddrs[start+1+j]) % size
				if !seen[loc] {
					seen[loc] = true
					addrs = append(addrs, loc)
				}
			}
			if len(addrs) == 0 {
				continue
			}
			sort.Ints(addrs)
			expected := make([]uint64, len(addrs))
			next := make([]uint64, len(addrs))
			for j, loc := range addrs {
				// Use the model's value half the time so swaps succeed.
				if j < len(rawVals) && rawVals[j]%2 == 0 {
					expected[j] = model[loc]
				} else if j < len(rawVals) {
					expected[j] = uint64(rawVals[j])
				}
				next[j] = uint64(loc*1000 + start)
			}
			swapped, old := casN(t, m, addrs, expected, next)
			wantSwap := true
			for j, loc := range addrs {
				if old[j] != model[loc] {
					t.Fatalf("observed %d at %d, model %d", old[j], loc, model[loc])
				}
				if model[loc] != expected[j] {
					wantSwap = false
				}
			}
			if swapped != wantSwap {
				t.Fatalf("swapped = %v, model says %v", swapped, wantSwap)
			}
			if wantSwap {
				for j, loc := range addrs {
					model[loc] = next[j]
				}
			}
		}
		for loc := 0; loc < size; loc++ {
			if m.Peek(loc) != model[loc] {
				t.Fatalf("memory[%d] = %d, model %d", loc, m.Peek(loc), model[loc])
			}
		}
	})
}
