package stm_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/lin"
	"github.com/stm-go/stm/internal/simrand"
	"github.com/stm-go/stm/internal/xrand"
)

func mustNew(t *testing.T, size int) *stm.Memory {
	t.Helper()
	m, err := stm.New(size)
	if err != nil {
		t.Fatalf("New(%d): %v", size, err)
	}
	return m
}

func mustNewEngine(t *testing.T, size int, eng stm.Engine) *stm.Memory {
	t.Helper()
	m, err := stm.New(size, stm.WithEngine(eng))
	if err != nil {
		t.Fatalf("New(%d, WithEngine(%v)): %v", size, eng, err)
	}
	return m
}

// addWord adds delta to the word at loc in one static transaction and
// returns the word's old value; swapWord stores v there instead. Tests use
// them as the plainest commit to one word.
func addWord(m *stm.Memory, loc int, delta uint64) uint64 {
	return updateWord(m, loc, func(old uint64) uint64 { return old + delta })
}

// addWords adds deltas[i] to the word at addrs[i] (ascending) in one
// static transaction.
func addWords(m *stm.Memory, addrs []int, deltas ...uint64) {
	tx, err := m.Prepare(addrs)
	if err != nil {
		panic(err)
	}
	tx.RunInto(func(o, n []uint64) {
		for i := range n {
			n[i] = o[i] + deltas[i]
		}
	}, nil)
}

func swapWord(m *stm.Memory, loc int, v uint64) uint64 {
	return updateWord(m, loc, func(uint64) uint64 { return v })
}

func updateWord(m *stm.Memory, loc int, f func(uint64) uint64) uint64 {
	tx, err := m.Prepare([]int{loc})
	if err != nil {
		panic(err)
	}
	var old [1]uint64
	tx.RunInto(func(o, n []uint64) { n[0] = f(o[0]) }, old[:])
	return old[0]
}

// forEachEngine runs f as a subtest per commit engine, so the concurrent
// harnesses (conservation, linearizability — the ones meant for -race)
// exercise every protocol, not just the default.
func forEachEngine(t *testing.T, f func(t *testing.T, eng stm.Engine)) {
	for _, e := range stm.Engines() {
		t.Run("engine="+e.String(), func(t *testing.T) { f(t, e) })
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := stm.New(0); err == nil {
		t.Error("New(0): want error")
	}
	if _, err := stm.New(-1); err == nil {
		t.Error("New(-1): want error")
	}
}

func TestPrepareValidation(t *testing.T) {
	// Prepare, ReadAllInto and WriteAll take the paper's data sets:
	// non-empty, strictly ascending, in bounds. Each rejects any other set
	// with the matching sentinel before a transaction starts, so memory is
	// unchanged and no attempt is made.
	tests := []struct {
		name  string
		addrs []int
		want  error
	}{
		{name: "empty", addrs: nil, want: stm.ErrEmptyDataSet},
		{name: "out of range", addrs: []int{8}, want: stm.ErrAddrRange},
		{name: "negative", addrs: []int{-2}, want: stm.ErrAddrRange},
		{name: "duplicate", addrs: []int{3, 3}, want: stm.ErrDupAddr},
		// A repeat that is not adjacent breaks the order first.
		{name: "duplicate far apart", addrs: []int{3, 1, 3}, want: stm.ErrAddrOrder},
		{name: "descending", addrs: []int{5, 2}, want: stm.ErrAddrOrder},
		{name: "unsorted", addrs: []int{1, 5, 3}, want: stm.ErrAddrOrder},
		{name: "ascending", addrs: []int{1, 3, 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := mustNew(t, 8)
			vals := make([]uint64, len(tt.addrs))
			for i := range vals {
				vals[i] = uint64(i + 1)
			}
			_, err := m.Prepare(tt.addrs)
			errs := map[string]error{
				"Prepare":     err,
				"ReadAllInto": m.ReadAllInto(tt.addrs, make([]uint64, len(tt.addrs))),
				"WriteAll":    m.WriteAll(tt.addrs, vals),
			}
			for entry, err := range errs {
				if tt.want == nil && err != nil {
					t.Errorf("%s(%v) = %v, want nil", entry, tt.addrs, err)
				}
				if tt.want != nil && !errors.Is(err, tt.want) {
					t.Errorf("%s(%v) = %v, want %v", entry, tt.addrs, err, tt.want)
				}
			}
			if tt.want == nil {
				got := make([]uint64, len(tt.addrs))
				if err := m.ReadAllInto(tt.addrs, got); err != nil || !slices.Equal(got, vals) {
					t.Errorf("ReadAllInto after WriteAll = %v, %v; want %v", got, err, vals)
				}
				return
			}
			for loc := 0; loc < m.Size(); loc++ {
				if v := m.Peek(loc); v != 0 {
					t.Errorf("word %d = %d after a rejected data set, want 0", loc, v)
				}
			}
			if a := m.Stats().Attempts; a != 0 {
				t.Errorf("%d attempts after a rejected data set, want 0", a)
			}
		})
	}
}

func TestDupAddrCompat(t *testing.T) {
	// Duplicate addresses report the dedicated ErrDupAddr sentinel, from
	// every entry point that validates a data set.
	m := mustNew(t, 8)
	_, err := m.Prepare([]int{3, 3})
	if !errors.Is(err, stm.ErrDupAddr) {
		t.Errorf("duplicate: err = %v, want ErrDupAddr", err)
	}
	if err := m.WriteAll([]int{5, 5}, []uint64{1, 2}); !errors.Is(err, stm.ErrDupAddr) {
		t.Errorf("WriteAll duplicate: err = %v, want ErrDupAddr", err)
	}
}

func TestCallerOrderPreserved(t *testing.T) {
	// Old values and update results are index-aligned with the caller's
	// address slice, words apart included.
	m := mustNew(t, 10)
	if err := m.WriteAll([]int{2, 7}, []uint64{200, 700}); err != nil {
		t.Fatal(err)
	}
	tx := mustPrepare(t, m, []int{2, 7})
	var old [2]uint64
	tx.RunInto(func(o, n []uint64) { n[0], n[1] = o[0]+2, o[1]+1 }, old[:])
	if old[0] != 200 || old[1] != 700 {
		t.Fatalf("old = %v, want [200 700]", old)
	}
	if got := m.Peek(2); got != 202 {
		t.Errorf("Peek(2) = %d, want 202", got)
	}
	if got := m.Peek(7); got != 701 {
		t.Errorf("Peek(7) = %d, want 701", got)
	}
}

func TestNilUpdatePanicsBeforeBegin(t *testing.T) {
	// A nil update function is a caller's bug, caught on the caller's
	// goroutine before a record is armed: no attempt is counted, and no
	// word is left owned by a record no helper could finish, so a later
	// transaction over the same words commits.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		m := mustNewEngine(t, 4, eng)
		tx := mustPrepare(t, m, []int{0, 1})
		v, err := stm.VarAt(m, stm.Uint64(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range []struct {
			name string
			f    func()
		}{
			{"Tx.RunInto", func() { tx.RunInto(nil, nil) }},
			{"Tx.TryInto", func() { tx.TryInto(nil, nil) }},
			{"Var.Update", func() { v.Update(nil) }},
		} {
			before := m.Stats().Attempts
			func() {
				defer func() {
					if r := recover(); r != stm.ErrNilUpdate {
						t.Errorf("%s(nil) panicked with %v, want ErrNilUpdate", call.name, r)
					}
				}()
				call.f()
			}()
			if got := m.Stats().Attempts; got != before {
				t.Errorf("%s(nil) made %d attempts, want 0", call.name, got-before)
			}
			done := make(chan error, 1)
			go func() { done <- m.WriteAll([]int{1}, []uint64{7}) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("WriteAll after %s(nil): %v", call.name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("WriteAll after %s(nil) did not commit", call.name)
			}
		}
	})
}

func TestConcurrentAddExact(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const (
			goroutines = 8
			each       = 1500
		)
		m := mustNewEngine(t, 1, eng)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					addWord(m, 0, 1)
				}
			}()
		}
		wg.Wait()
		if got, want := m.Peek(0), uint64(goroutines*each); got != want {
			t.Errorf("counter = %d, want %d", got, want)
		}
	})
}

// TestRegisterSwapsLinearizable records concurrent histories of one-word
// swaps (Tx.RunInto, each returning the value it replaced) and checks each
// against the sequential register. The search is exponential in history
// length, so it runs many short rounds — at most 4 goroutines of 5 swaps —
// until its time budget is spent: short histories still catch an ordering
// violation.
func TestRegisterSwapsLinearizable(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const (
			goroutines = 4
			opsPer     = 5
			budget     = 300 * time.Millisecond
		)
		seed := simrand.SeedForTest(t)
		deadline := time.Now().Add(budget)
		for round := uint64(1); time.Now().Before(deadline); round++ {
			m := mustNewEngine(t, 1, eng)
			tx := mustPrepare(t, m, []int{0})
			rec := lin.NewRecorder()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := xrand.New(seed ^ round*0x9e3779b97f4a7c15 ^ uint64(g+1)*0xbf58476d1ce4e5b9)
					for i := 0; i < opsPer; i++ {
						v := rng.Uint64()%100 + 1
						call := rec.Begin(g, lin.Op{Kind: lin.OpSwap, Arg: v})
						var old [1]uint64
						tx.RunInto(func(_, new []uint64) { new[0] = v }, old[:])
						rec.End(call, old[0])
					}
				}(g)
			}
			wg.Wait()
			if !lin.CheckRegister(rec.History(), 0) {
				t.Fatalf("round %d: the swap history is not linearizable as a register", round)
			}
		}
	})
}

// casN is a k-word compare-and-swap as one static transaction over the
// ascending addrs: if every word equals expected, install next; otherwise
// commit the data set unchanged. It returns whether the swap happened and
// the words it observed.
func casN(t *testing.T, m *stm.Memory, addrs []int, expected, next []uint64) (bool, []uint64) {
	t.Helper()
	tx := mustPrepare(t, m, addrs)
	old := make([]uint64, len(addrs))
	tx.RunInto(func(o, n []uint64) {
		if slices.Equal(o, expected) {
			copy(n, next)
		} else {
			copy(n, o)
		}
	}, old)
	return slices.Equal(old, expected), old
}

// TestCASNMatchesSequentialSpec drives a single-goroutine CASN against a
// model vector with property-based inputs: for every random op the observed
// snapshot, success flag, and resulting state must match the specification.
func TestCASNMatchesSequentialSpec(t *testing.T) {
	const size = 6
	m := mustNew(t, size)
	model := make([]uint64, size)

	step := func(rawAddrs []uint8, rawExp, rawNew []uint8) bool {
		if len(rawAddrs) == 0 {
			return true
		}
		// Build an ascending address set.
		var addrs []int
		for _, a := range rawAddrs {
			addrs = append(addrs, int(a)%size)
		}
		slices.Sort(addrs)
		addrs = slices.Compact(addrs)
		expected := make([]uint64, len(addrs))
		newv := make([]uint64, len(addrs))
		for i := range addrs {
			// Half the time use the true current value so swaps succeed.
			if i < len(rawExp) && rawExp[i]%2 == 0 {
				expected[i] = model[addrs[i]]
			} else if i < len(rawExp) {
				expected[i] = uint64(rawExp[i])
			}
			if i < len(rawNew) {
				newv[i] = uint64(rawNew[i])
			}
		}

		swapped, old := casN(t, m, addrs, expected, newv)
		// Spec: old must equal the model's current values.
		wantSwap := true
		for i, loc := range addrs {
			if old[i] != model[loc] {
				t.Fatalf("observed old[%d]=%d, model=%d", i, old[i], model[loc])
			}
			if model[loc] != expected[i] {
				wantSwap = false
			}
		}
		if swapped != wantSwap {
			t.Fatalf("swapped=%v, spec says %v", swapped, wantSwap)
		}
		if wantSwap {
			for i, loc := range addrs {
				model[loc] = newv[i]
			}
		}
		// Memory must equal the model.
		for loc := 0; loc < size; loc++ {
			if m.Peek(loc) != model[loc] {
				t.Fatalf("memory[%d]=%d, model=%d", loc, m.Peek(loc), model[loc])
			}
		}
		return true
	}

	// Seeded via simrand: the failing input sequence replays exactly from
	// the seed logged on failure (STM_SIM_SEED).
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(int64(simrand.SeedForTest(t)))),
	}
	if err := quick.Check(step, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompareAndSwapSingle(t *testing.T) {
	// A one-word Var's CompareAndSwap runs the same comparison as a wide
	// one.
	m := mustNew(t, 2)
	v, err := stm.VarAt(m, stm.Uint64(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.CompareAndSwap(0, 42) {
		t.Fatal("CAS(0, 42) = false, want true")
	}
	if v.CompareAndSwap(0, 99) {
		t.Fatal("CAS(0, 99) = true, want false")
	}
	if got := m.Peek(1); got != 42 {
		t.Errorf("Peek(1) = %d, want 42", got)
	}
}

func TestWriteAllReadAll(t *testing.T) {
	m := mustNew(t, 5)
	if err := m.WriteAll([]int{0, 2, 4}, []uint64{0, 20, 40}); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 3)
	if err := m.ReadAllInto([]int{0, 2, 4}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 20 || got[2] != 40 {
		t.Errorf("ReadAllInto = %v, want [0 20 40]", got)
	}
	if err := m.WriteAll([]int{1}, []uint64{1, 2}); err == nil {
		t.Error("WriteAll length mismatch: want error")
	}
	if err := m.ReadAllInto([]int{1}, got); err == nil {
		t.Error("ReadAllInto length mismatch: want error")
	}
}

func TestSwapReturnsOld(t *testing.T) {
	m := mustNew(t, 1)
	if old := swapWord(m, 0, 7); old != 0 {
		t.Fatalf("swap returned %d, want 0", old)
	}
	if old := swapWord(m, 0, 9); old != 7 {
		t.Fatalf("swap returned %d, want 7", old)
	}
}

func TestAddTwosComplementSubtraction(t *testing.T) {
	m := mustNew(t, 1)
	addWord(m, 0, 10)
	addWord(m, 0, ^uint64(0)) // -1
	if got := m.Peek(0); got != 9 {
		t.Errorf("Peek = %d, want 9", got)
	}
}

func TestSnapshotConsistentUnderTransfers(t *testing.T) {
	// Transfer goroutines move random amounts between random pairs of words
	// (a static transaction over the ascending pair, never overdrawing),
	// while the test takes whole-memory snapshots: every snapshot, and the
	// final state, must hold the starting total.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const (
			size      = 6
			initial   = 100
			movers    = 3
			snapshots = 200
		)
		m := mustNewEngine(t, size, eng)
		addrs := make([]int, size)
		for i := range addrs {
			addrs[i] = i
			swapWord(m, i, initial)
		}
		var pairs [size][size]*stm.Tx // pairs[lo][hi]: the data set {lo, hi}
		for lo := 0; lo < size; lo++ {
			for hi := lo + 1; hi < size; hi++ {
				pairs[lo][hi] = mustPrepare(t, m, []int{lo, hi})
			}
		}
		seed := simrand.SeedForTest(t)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < movers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := xrand.New(seed ^ uint64(g+1)*0x9e3779b97f4a7c15)
				for {
					select {
					case <-stop:
						return
					default:
					}
					a, b := rng.Intn(size), rng.Intn(size)
					if a == b {
						continue
					}
					amt := rng.Uint64() % 64
					// from and to index the ascending pair.
					from, to := 0, 1
					if a > b {
						a, b = b, a
						from, to = 1, 0
					}
					pairs[a][b].RunInto(func(old, new []uint64) {
						x := min(amt, old[from])
						new[from], new[to] = old[from]-x, old[to]+x
					}, nil)
				}
			}(g)
		}
		snap := make([]uint64, size)
		for i := 0; i < snapshots; i++ {
			if err := m.ReadAllInto(addrs, snap); err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for _, v := range snap {
				sum += v
			}
			if sum != size*initial {
				t.Fatalf("snapshot %d sum = %d, want %d", i, sum, size*initial)
			}
		}
		close(stop)
		wg.Wait()
		var sum uint64
		for i := 0; i < size; i++ {
			sum += m.Peek(i)
		}
		if sum != size*initial {
			t.Errorf("final sum = %d, want %d", sum, size*initial)
		}
	})
}

func TestStatsExposed(t *testing.T) {
	m := mustNew(t, 1)
	addWord(m, 0, 1)
	st := m.Stats()
	if st.Attempts == 0 || st.Commits == 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
}

func TestMemoryResetStatsWindows(t *testing.T) {
	m := mustNew(t, 8)
	for i := 0; i < 10; i++ {
		addWord(m, 1, 1)
	}
	if st := m.Stats(); st.Attempts < 10 || st.Commits < 10 {
		t.Fatalf("pre-reset stats = %+v, want >= 10 attempts/commits", st)
	}
	m.ResetStats()
	if st := m.Stats(); st.Attempts != 0 || st.Commits != 0 || st.Failures != 0 {
		t.Errorf("post-reset stats = %+v, want zero", st)
	}
	for i := 0; i < 3; i++ {
		addWord(m, 1, 1)
	}
	if st := m.Stats(); st.Attempts != 3 || st.Commits != 3 {
		t.Errorf("windowed stats = %+v, want exactly 3 attempts / 3 commits", st)
	}
}
