package stm_test

// Allocation regression tests for the pooled hot path, plus correctness
// tests for the Into API surface and the record-recycling (seal/pin)
// scheme under contention. The allocation assertions pin down the
// zero-allocation contract documented in DESIGN.md §6: if a change makes a
// fast path allocate again, these fail before any benchmark has to notice.

import (
	"sync"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/contention"
)

func mustPrepare(t *testing.T, m *stm.Memory, addrs []int) *stm.Tx {
	t.Helper()
	tx, err := m.Prepare(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// assertAllocs asserts fn settles at want amortized allocations per run.
// The box-chunk amortization allocates one backing array per ~512 commits,
// which testing.AllocsPerRun's integer-averaged result reports as 0.
func assertAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if got := testing.AllocsPerRun(200, fn); got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.1f", name, got, want)
	}
}

func TestAllocsPreparedRunInto(t *testing.T) {
	m := mustNew(t, 8)
	tx := mustPrepare(t, m, []int{3})
	var old [1]uint64
	inc := func(o, n []uint64) { n[0] = o[0] + 1 }
	assertAllocs(t, "RunInto/1", 0, func() { tx.RunInto(inc, old[:]) })

	tx3 := mustPrepare(t, m, []int{1, 4, 6})
	var old3 [3]uint64
	rot := func(o, n []uint64) { n[0], n[1], n[2] = o[2], o[0], o[1] }
	assertAllocs(t, "RunInto/3-ascending", 0, func() { tx3.RunInto(rot, old3[:]) })

	// Permuted declaration order exercises the caller-order remap path.
	txp := mustPrepare(t, m, []int{6, 1, 4})
	assertAllocs(t, "RunInto/3-permuted", 0, func() { txp.RunInto(rot, old3[:]) })
}

func TestAllocsSingleWordOps(t *testing.T) {
	m := mustNew(t, 8)
	assertAllocs(t, "Add", 0, func() {
		if _, err := m.Add(2, 1); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "Swap", 0, func() {
		if _, err := m.Swap(2, 7); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "CompareAndSwap", 0, func() {
		v := m.Peek(5)
		if _, err := m.CompareAndSwap(5, v, v+1); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocsReadAllInto(t *testing.T) {
	m := mustNew(t, 16)
	addrs := []int{1, 4, 9, 12}
	dst := make([]uint64, len(addrs))
	assertAllocs(t, "ReadAllInto", 0, func() {
		if err := m.ReadAllInto(addrs, dst); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocsDefaultPolicyWithTelemetry(t *testing.T) {
	// The contention subsystem's bookkeeping — per-word conflict counters,
	// the pooled Conflict report, the policy hooks — must not cost the
	// uncontended hot paths their zero-allocation contract. Checked for an
	// explicitly configured default policy and for Adaptive, which opts
	// into clean-commit reports and therefore exercises the report pool on
	// every single operation.
	for _, tc := range []struct {
		name string
		opt  stm.Option
	}{
		{"ExpBackoff", stm.WithPolicy(contention.NewExpBackoff(500*time.Nanosecond, 100*time.Microsecond))},
		{"Adaptive", stm.WithPolicy(contention.NewAdaptive(contention.AdaptiveConfig{}))},
	} {
		m, err := stm.New(8, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		assertAllocs(t, tc.name+"/Add", 0, func() {
			if _, err := m.Add(2, 1); err != nil {
				t.Fatal(err)
			}
		})
		tx := mustPrepare(t, m, []int{1, 4})
		var old [2]uint64
		inc := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
		assertAllocs(t, tc.name+"/RunInto", 0, func() { tx.RunInto(inc, old[:]) })
		if m.Stats().Commits == 0 {
			t.Errorf("%s: telemetry disabled? no commits counted", tc.name)
		}
	}
}

func TestAllocsTypedTxSet(t *testing.T) {
	// The acceptance headline of the typed layer: a prepared typed
	// read-modify-write — a reused TxSet over a Var[int64] and a
	// multi-word struct var — is allocation-free, with contention
	// telemetry on, matching the raw RunInto contract. Checked under the
	// default policy and under Adaptive, which opts into clean-commit
	// reports and so exercises the policy hooks on every commit.
	for _, tc := range []struct {
		name string
		opts []stm.Option
	}{
		{"Default", nil},
		{"Adaptive", []stm.Option{stm.WithPolicy(contention.NewAdaptive(contention.AdaptiveConfig{}))}},
	} {
		m, err := stm.New(16, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := stm.Alloc(m, stm.Int64())
		if err != nil {
			t.Fatal(err)
		}
		pt, err := stm.Alloc(m, benchPointCodec{})
		if err != nil {
			t.Fatal(err)
		}
		ts := stm.NewTxSet(m)
		sc := stm.AddVar(ts, counter)
		sp := stm.AddVar(ts, pt)
		if err := ts.Compile(); err != nil {
			t.Fatal(err)
		}
		rmw := func(tv stm.TxView) {
			x := sc.Get(tv)
			q := sp.Get(tv)
			sc.Set(tv, x+1)
			sp.Set(tv, benchPoint{q.X + x, q.Y - x})
		}
		assertAllocs(t, tc.name+"/TxSetRun", 0, func() {
			if err := ts.Run(rmw); err != nil {
				t.Fatal(err)
			}
		})
		if m.Stats().Commits == 0 {
			t.Errorf("%s: telemetry disabled? no commits counted", tc.name)
		}
	}
}

func TestAllocsAtomicallyDynamic(t *testing.T) {
	// The dynamic layer's acceptance headline: an Atomically read-modify-
	// write over two vars with a stable footprint — the steady state of a
	// stable call site — is allocation-free with contention telemetry on.
	// The pooled DTx's logs, staging buffers, and compiled-footprint cache
	// carry the whole operation; the commit rides the same pooled static
	// path as a compiled TxSet. Checked under the default policy and under
	// Adaptive (clean-commit reports exercise the policy hooks every op).
	for _, tc := range []struct {
		name string
		opts []stm.Option
	}{
		{"Default", nil},
		{"Adaptive", []stm.Option{stm.WithPolicy(contention.NewAdaptive(contention.AdaptiveConfig{}))}},
	} {
		m, err := stm.New(16, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := stm.Alloc(m, stm.Int64())
		if err != nil {
			t.Fatal(err)
		}
		pt, err := stm.Alloc(m, benchPointCodec{})
		if err != nil {
			t.Fatal(err)
		}
		rmw := func(tx *stm.DTx) error {
			x := stm.ReadVar(tx, counter)
			q := stm.ReadVar(tx, pt)
			stm.WriteVar(tx, counter, x+1)
			stm.WriteVar(tx, pt, benchPoint{q.X + x, q.Y - x})
			return nil
		}
		assertAllocs(t, tc.name+"/Atomically", 0, func() {
			if err := m.Atomically(rmw); err != nil {
				t.Fatal(err)
			}
		})
		if m.Stats().Commits == 0 {
			t.Errorf("%s: telemetry disabled? no commits counted", tc.name)
		}
		// A transaction that only reads commits where it stands: no record,
		// no footprint, nothing to allocate — and no engine attempt.
		var sum int64
		lookup := func(tx *stm.DTx) error {
			q := stm.ReadVar(tx, pt)
			sum = stm.ReadVar(tx, counter) + q.X
			return nil
		}
		before := m.Stats()
		assertAllocs(t, tc.name+"/Atomically read-only", 0, func() {
			if err := m.Atomically(lookup); err != nil {
				t.Fatal(err)
			}
		})
		after := m.Stats()
		if after.Attempts != before.Attempts || after.ReadOnlyCommits == before.ReadOnlyCommits {
			t.Errorf("%s: read-only Atomically made %d engine attempts and %d read-only commits, want 0 and > 0",
				tc.name, after.Attempts-before.Attempts, after.ReadOnlyCommits-before.ReadOnlyCommits)
		}
		_ = sum
	}
}

func TestAllocsVarLoadStore(t *testing.T) {
	m := mustNew(t, 16)
	v, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.Alloc(m, benchPointCodec{})
	if err != nil {
		t.Fatal(err)
	}
	assertAllocs(t, "Var.Load", 0, func() { _ = v.Load() })
	assertAllocs(t, "Var.Store", 0, func() { v.Store(7) })
	assertAllocs(t, "Var.Load/struct", 0, func() { _ = p.Load() })
	assertAllocs(t, "Var.Store/struct", 0, func() { p.Store(benchPoint{1, 2}) })
}

func TestAllocsVarCompareAndSwap(t *testing.T) {
	// The typed CAS satellite contract: both the single-word (calcCAS1)
	// and multi-word (CASN) routes stay allocation-free, success or
	// failure.
	m := mustNew(t, 16)
	v, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	assertAllocs(t, "Var.CAS/1-word", 0, func() {
		old := v.Load()
		if !v.CompareAndSwap(old, old+1) {
			t.Fatal("uncontended CAS failed")
		}
		if v.CompareAndSwap(old, old) {
			t.Fatal("stale CAS succeeded")
		}
	})
	p, err := stm.Alloc(m, benchPointCodec{})
	if err != nil {
		t.Fatal(err)
	}
	assertAllocs(t, "Var.CAS/2-word", 0, func() {
		old := p.Load()
		if !p.CompareAndSwap(old, benchPoint{old.X + 1, old.Y - 1}) {
			t.Fatal("uncontended struct CAS failed")
		}
		if p.CompareAndSwap(old, old) {
			t.Fatal("stale struct CAS succeeded")
		}
	})
}

func TestAllocsAddrsInto(t *testing.T) {
	m := mustNew(t, 16)
	tx := mustPrepare(t, m, []int{9, 2, 5})
	buf := make([]int, 0, 3)
	assertAllocs(t, "AddrsInto", 0, func() { buf = tx.AddrsInto(buf[:0]) })
	if len(buf) != 3 || buf[0] != 9 || buf[1] != 2 || buf[2] != 5 {
		t.Errorf("AddrsInto = %v, want [9 2 5] (caller order)", buf)
	}
}

// benchPoint / benchPointCodec: a two-word struct codec for the
// allocation assertions (kept separate from vars_test's point so each
// file reads standalone).
type benchPoint struct{ X, Y int64 }

type benchPointCodec struct{}

func (benchPointCodec) Words() int { return 2 }
func (benchPointCodec) Encode(p benchPoint, dst []uint64) {
	dst[0], dst[1] = uint64(p.X), uint64(p.Y)
}
func (benchPointCodec) Decode(src []uint64) benchPoint {
	return benchPoint{int64(src[0]), int64(src[1])}
}

func TestAllocsLegacyRunReduced(t *testing.T) {
	// The slice-returning Run keeps its API (so it must allocate the result
	// and the wrapper), but it must stay far below the pre-pooling seven
	// allocations per op.
	m := mustNew(t, 4)
	tx := mustPrepare(t, m, []int{0})
	f := func(o []uint64) []uint64 { return []uint64{o[0] + 1} }
	assertAllocs(t, "Run legacy", 3, func() { tx.Run(f) })
}

func TestTryIntoSnapshotSemantics(t *testing.T) {
	m := mustNew(t, 4)
	if err := m.WriteAll([]int{0, 1, 2}, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	// Declared order (2, 0): old must arrive in caller order, and new
	// values written in caller order must land on the right words.
	tx := mustPrepare(t, m, []int{2, 0})
	var old [2]uint64
	if !tx.TryInto(func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+2 }, old[:]) {
		t.Fatal("uncontended TryInto failed")
	}
	if old[0] != 30 || old[1] != 10 {
		t.Errorf("old = %v, want [30 10] (caller order)", old)
	}
	if got := m.Peek(2); got != 31 {
		t.Errorf("Peek(2) = %d, want 31", got)
	}
	if got := m.Peek(0); got != 12 {
		t.Errorf("Peek(0) = %d, want 12", got)
	}
	// nil old discards the snapshot.
	if !tx.TryInto(func(o, n []uint64) { n[0], n[1] = o[0], o[1] }, nil) {
		t.Fatal("TryInto with nil old failed")
	}
}

func TestTryIntoBadBufferPanics(t *testing.T) {
	m := mustNew(t, 4)
	tx := mustPrepare(t, m, []int{0, 1})
	defer func() {
		if recover() == nil {
			t.Error("TryInto with short old buffer should panic")
		}
	}()
	var old [1]uint64
	tx.TryInto(func(o, n []uint64) { copy(n, o) }, old[:])
}

func TestRunIntoConcurrentTransfers(t *testing.T) {
	// Concurrent two-word RunInto transfers must conserve the total and
	// observe consistent old values (each attempt's old sum must equal the
	// invariant at its linearization point).
	const (
		accounts  = 8
		initial   = 1_000
		transfers = 2_000
		workers   = 4
	)
	m := mustNew(t, accounts)
	for i := 0; i < accounts; i++ {
		if _, err := m.Swap(i, initial); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var old [2]uint64
			move := func(o, n []uint64) {
				amt := o[0] / 2
				n[0], n[1] = o[0]-amt, o[1]+amt
			}
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < transfers; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				a := int(rng % accounts)
				b := int((rng >> 16) % accounts)
				if a == b {
					b = (b + 1) % accounts
				}
				tx, err := m.Prepare([]int{a, b})
				if err != nil {
					t.Error(err)
					return
				}
				tx.RunInto(move, old[:])
			}
		}(w)
	}
	wg.Wait()
	var sum uint64
	for i := 0; i < accounts; i++ {
		sum += m.Peek(i)
	}
	if sum != accounts*initial {
		t.Errorf("total = %d, want %d", sum, accounts*initial)
	}
}

func TestPoolReuseStress(t *testing.T) {
	// Hammer overlapping data sets from many goroutines so that failed
	// attempts constantly help other transactions while the records being
	// helped are recycled at full speed — the seal/pin guard's worst case.
	// Additions commute, so the final state must be the exact per-word sum
	// of committed deltas; any helper acting on a stale or re-armed record
	// would corrupt it.
	const (
		size    = 4 // small: maximize conflicts, helping, and reuse
		workers = 8
		ops     = 3_000
	)
	m := mustNew(t, size)
	perWord := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		perWord[w] = make([]uint64, size)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 7
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			var old [2]uint64
			for i := 0; i < ops; i++ {
				delta := uint64(next(50) + 1)
				if next(2) == 0 {
					loc := next(size)
					if _, err := m.Add(loc, delta); err != nil {
						t.Error(err)
						return
					}
					perWord[w][loc] += delta
					continue
				}
				a := next(size)
				b := next(size)
				if a == b {
					b = (b + 1) % size
				}
				if a > b {
					a, b = b, a
				}
				tx, err := m.Prepare([]int{a, b})
				if err != nil {
					t.Error(err)
					return
				}
				add2 := func(o, n []uint64) { n[0], n[1] = o[0]+delta, o[1]+delta }
				tx.RunInto(add2, old[:])
				perWord[w][a] += delta
				perWord[w][b] += delta
			}
		}(w)
	}
	wg.Wait()
	for loc := 0; loc < size; loc++ {
		var want uint64
		for w := 0; w < workers; w++ {
			want += perWord[w][loc]
		}
		if got := m.Peek(loc); got != want {
			t.Errorf("word %d = %d, want %d", loc, got, want)
		}
	}
	st := m.Stats()
	if st.Attempts != st.Commits+st.Failures {
		t.Errorf("attempts=%d != commits=%d + failures=%d", st.Attempts, st.Commits, st.Failures)
	}
}

func TestFastPathMatchesFallback(t *testing.T) {
	// CompareAndSwapN must behave identically on the ascending fast path
	// and the permuted fallback path.
	for _, addrs := range [][]int{{1, 3, 5}, {5, 1, 3}} {
		m := mustNew(t, 8)
		if err := m.WriteAll([]int{1, 3, 5}, []uint64{10, 30, 50}); err != nil {
			t.Fatal(err)
		}
		want := map[int]uint64{1: 10, 3: 30, 5: 50}
		exp := make([]uint64, 3)
		repl := make([]uint64, 3)
		for i, a := range addrs {
			exp[i] = want[a]
			repl[i] = want[a] + 100
		}
		// Mismatch first: nothing changes, snapshot comes back aligned.
		bad := append([]uint64(nil), exp...)
		bad[0]++
		ok, got, err := m.CompareAndSwapN(addrs, bad, repl)
		if err != nil || ok {
			t.Fatalf("addrs %v: mismatch CASN ok=%v err=%v, want false nil", addrs, ok, err)
		}
		for i, a := range addrs {
			if got[i] != want[a] {
				t.Errorf("addrs %v: snapshot[%d] = %d, want %d", addrs, i, got[i], want[a])
			}
		}
		// Match: all words replaced.
		ok, _, err = m.CompareAndSwapN(addrs, exp, repl)
		if err != nil || !ok {
			t.Fatalf("addrs %v: matching CASN ok=%v err=%v, want true nil", addrs, ok, err)
		}
		for i, a := range addrs {
			if got := m.Peek(a); got != repl[i] {
				t.Errorf("addrs %v: word %d = %d, want %d", addrs, a, got, repl[i])
			}
		}
	}
}
