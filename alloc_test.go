package stm_test

// Allocation regression tests for the pooled hot path, plus correctness
// tests for the Into API surface and the record-recycling (seal/pin)
// scheme when transactions contend. The allocation assertions pin down the
// zero-allocation contract documented in DESIGN.md §6: if a change makes a
// fast path allocate again, these fail before any benchmark has to notice.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	stm "github.com/stm-go/stm"
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
	// A collection during the measured runs empties the sync.Pools the hot
	// paths recycle through, and refilling them costs hundreds of
	// allocations. Collect twice and warm the pools back up first: the
	// measured runs, which allocate next to nothing, then start with the
	// whole heap goal ahead of them.
	runtime.GC()
	runtime.GC()
	for i := 0; i < 50; i++ {
		fn()
	}
	if got := testing.AllocsPerRun(200, fn); got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.1f", name, got, want)
	}
}

func TestAllocsPreparedRunInto(t *testing.T) {
	// A prepared transaction commits without allocating for any data set,
	// on either engine: the record, its scratch and the engine's value
	// buffers are pooled, whatever the width.
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 64, eng)
		for _, addrs := range [][]int{{3}, {1, 4, 6}, {0, 1, 2, 3, 4, 5, 6, 7}, wideSet(40)} {
			tx := mustPrepare(t, m, addrs)
			old := make([]uint64, len(addrs))
			inc := func(o, n []uint64) {
				for i := range n {
					n[i] = o[i] + 1
				}
			}
			assertAllocs(t, fmt.Sprintf("%v/RunInto/%d", eng, len(addrs)), 0, func() { tx.RunInto(inc, old) })
			assertAllocs(t, fmt.Sprintf("%v/TryInto/%d", eng, len(addrs)), 0, func() {
				if !tx.TryInto(inc, old) {
					t.Fatal("uncontended TryInto failed")
				}
			})
		}
	}
}

// wideSet returns n ascending, non-contiguous addresses 0, 1, 3, 4, 6, ….
func wideSet(n int) []int {
	addrs := make([]int, n)
	for i := range addrs {
		addrs[i] = i + i/2
	}
	return addrs
}

func TestAllocsSingleWordOps(t *testing.T) {
	// A one-word data set is the paper's smallest static transaction: a
	// store and a read of it, and a one-word Var's CAS. The one-word update
	// is pinned by TestAllocsPreparedRunInto.
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 8, eng)
		var old [1]uint64
		addr, val := []int{2}, []uint64{7}
		assertAllocs(t, eng.String()+"/WriteAll", 0, func() {
			if err := m.WriteAll(addr, val); err != nil {
				t.Fatal(err)
			}
		})
		assertAllocs(t, eng.String()+"/ReadAllInto", 0, func() {
			if err := m.ReadAllInto(addr, old[:]); err != nil {
				t.Fatal(err)
			}
		})
		v, err := stm.VarAt(m, stm.Uint64(), 5)
		if err != nil {
			t.Fatal(err)
		}
		assertAllocs(t, eng.String()+"/Var.CompareAndSwap", 0, func() {
			x := v.Load()
			if !v.CompareAndSwap(x, x+1) {
				t.Fatal("uncontended CAS failed")
			}
		})
	}
}

func TestAllocsReadAllInto(t *testing.T) {
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 64, eng)
		for _, addrs := range [][]int{{1, 3, 4, 6, 9, 11, 12, 15}, wideSet(40)} {
			dst := make([]uint64, len(addrs))
			assertAllocs(t, fmt.Sprintf("%v/ReadAllInto/%d", eng, len(addrs)), 0, func() {
				if err := m.ReadAllInto(addrs, dst); err != nil {
					t.Fatal(err)
				}
			})
			assertAllocs(t, fmt.Sprintf("%v/WriteAll/%d", eng, len(addrs)), 0, func() {
				if err := m.WriteAll(addrs, dst); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestAllocsDefaultPolicyWithTelemetry(t *testing.T) {
	// The retry driver's bookkeeping — per-word conflict counters, the
	// operation's backoff — must not cost the uncontended hot paths their
	// zero-allocation contract. Checked on both engines.
	for _, eng := range stm.Engines() {
		m, err := stm.New(8, stm.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		tx := mustPrepare(t, m, []int{1, 4})
		var old [2]uint64
		inc := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
		assertAllocs(t, eng.String()+"/RunInto", 0, func() { tx.RunInto(inc, old[:]) })
		if m.Stats().Commits == 0 {
			t.Errorf("%s: telemetry disabled? no commits counted", eng)
		}
	}
}

// TestNewAllocatesOnlyTheTable pins a Memory's construction: its words are
// built a chunk at a time on first write, so stm.New(1<<20), a 64 MiB
// Memory once every word is written, allocates only its chunk table and
// bookkeeping (12.8 KB on amd64), not the words.
func TestNewAllocatesOnlyTheTable(t *testing.T) {
	for _, eng := range stm.Engines() {
		least := uint64(1 << 62)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := stm.New(1<<20, stm.WithEngine(eng))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(m)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 64<<10 {
			t.Errorf("%v: stm.New(1<<20) allocated %d B, want < 64 KiB", eng, least)
		}
	}
}

func TestAllocsConflictBackoff(t *testing.T) {
	// A conflicted operation waits on a backoff its retry loop holds by
	// value, so the conflict costs no allocation. Here every Atomically
	// fails once: a commit to the word it read lands after the read, the
	// commit's validation finds it stale, and the operation backs off,
	// re-executes and commits.
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 8, eng)
		bump := mustPrepare(t, m, []int{1})
		inc := func(o, n []uint64) { n[0] = o[0] + 1 }
		var runs uint64
		stale := false
		f := func(tx *stm.DTx) error {
			v := tx.Read(1)
			if stale {
				stale = false
				bump.RunInto(inc, nil)
			}
			tx.Write(2, v)
			return nil
		}
		before := m.Stats()
		assertAllocs(t, eng.String()+"/conflicted Atomically", 0, func() {
			runs++
			stale = true
			if err := m.Atomically(f); err != nil {
				t.Fatal(err)
			}
		})
		if got, want := delta(before, m.Stats()), (counts{attempts: 3 * runs, failures: runs, commits: 2 * runs}); got != want {
			t.Errorf("%s: attempts, failures, commits = %+v over %d operations, want %+v", eng, got, runs, want)
		}
	}
}

func TestAllocsAtomicallyDynamic(t *testing.T) {
	// The dynamic layer's acceptance headline: an Atomically read-modify-
	// write over two vars with a stable footprint — the steady state of a
	// stable call site — is allocation-free with contention telemetry on.
	// The pooled DTx's logs, staging buffers, and compiled-footprint
	// buffers carry the whole operation; the commit rides the same pooled static
	// path as a prepared Tx. Checked on both engines.
	for _, eng := range stm.Engines() {
		name, opts := eng.String(), []stm.Option{stm.WithEngine(eng)}
		m, err := stm.New(16, opts...)
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
		assertAllocs(t, name+"/Atomically", 0, func() {
			if err := m.Atomically(rmw); err != nil {
				t.Fatal(err)
			}
		})
		if m.Stats().Commits == 0 {
			t.Errorf("%s: telemetry disabled? no commits counted", name)
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
		assertAllocs(t, name+"/Atomically read-only", 0, func() {
			if err := m.Atomically(lookup); err != nil {
				t.Fatal(err)
			}
		})
		after := m.Stats()
		if after.Attempts != before.Attempts || after.ReadOnlyCommits == before.ReadOnlyCommits {
			t.Errorf("%s: read-only Atomically made %d engine attempts and %d read-only commits, want 0 and > 0",
				name, after.Attempts-before.Attempts, after.ReadOnlyCommits-before.ReadOnlyCommits)
		}
		_ = sum

		// Pointer chasing, what only the dynamic API can express: the
		// footprint depends on the data met, up to 129 words per operation.
		const listKeys = 64
		l := newWordList(t, opts, listKeys+1, listKeys)
		n := 0
		assertAllocs(t, name+"/list contains", 0, func() {
			n++
			if got, want := l.contains(t, uint64(2*(n%listKeys)+n%2)), n%2 == 1; got != want {
				t.Fatalf("contains = %v, want %v", got, want)
			}
		})
		assertAllocs(t, name+"/list insert+remove", 0, func() {
			n++
			k := uint64(2 * (n%listKeys + 1))
			if !l.insert(t, k) || !l.remove(t, k) {
				t.Fatalf("churn of key %d failed", k)
			}
		})

		// A different pair of words every operation: a footprint that
		// moves every call (discover, sort, commit). Each operation moves one entry
		// of a 64-slot table to the other under p(i) = (7i+3) mod 64.
		const slots = 64
		hm, err := stm.New(2*slots, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < slots; i++ {
			swapWord(hm, i, uint64(i+1))
		}
		op := 0
		assertAllocs(t, name+"/hash migrate", 0, func() {
			i := op % slots
			src, dst := i, slots+(7*i+3)%slots
			if (op/slots)%2 == 1 {
				src, dst = slots+i, (7*i+3)%slots
			}
			op++
			if err := hm.Atomically(func(tx *stm.DTx) error {
				v := tx.Read(src)
				if v == 0 {
					return fmt.Errorf("empty source slot %d", src)
				}
				tx.Write(dst, v)
				tx.Write(src, 0)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// wordList is a sorted linked-list set of keys in raw words: word 0 is the
// head, a node at base holds [key, next-base], 0 is nil. Node slots come
// from a free list kept outside the transactions, so a re-execution never
// takes a second slot.
type wordList struct {
	m    *stm.Memory
	free []int
}

// newWordList returns a list of room for nodes keys, holding the odd keys
// 1, 3, …, 2·keys−1.
func newWordList(t *testing.T, opts []stm.Option, nodes, keys int) *wordList {
	t.Helper()
	m, err := stm.New(1+2*nodes, opts...)
	if err != nil {
		t.Fatal(err)
	}
	l := &wordList{m: m}
	for i := nodes - 1; i >= 0; i-- {
		l.free = append(l.free, 1+2*i)
	}
	for i := 0; i < keys; i++ {
		l.insert(t, uint64(2*i+1))
	}
	return l
}

// seek walks to the first node whose key is ≥ k: link is the word pointing
// at it (0, the head, for the first node), pos its base (0 past the end),
// and found whether its key is k.
func seek(tx *stm.DTx, k uint64) (link, pos int, found bool) {
	for pos = int(tx.Read(0)); pos != 0; pos = int(tx.Read(link)) {
		if key := tx.Read(pos); key >= k {
			return link, pos, key == k
		}
		link = pos + 1
	}
	return link, 0, false
}

func (l *wordList) contains(t *testing.T, k uint64) (found bool) {
	if err := l.m.Atomically(func(tx *stm.DTx) error {
		_, _, found = seek(tx, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

func (l *wordList) insert(t *testing.T, k uint64) (inserted bool) {
	cand := l.free[len(l.free)-1]
	if err := l.m.Atomically(func(tx *stm.DTx) error {
		link, pos, found := seek(tx, k)
		if inserted = !found; inserted {
			tx.Write(cand, k)
			tx.Write(cand+1, uint64(pos))
			tx.Write(link, uint64(cand))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if inserted {
		l.free = l.free[:len(l.free)-1]
	}
	return inserted
}

func (l *wordList) remove(t *testing.T, k uint64) bool {
	removed := 0 // the node the committed execution unlinked
	if err := l.m.Atomically(func(tx *stm.DTx) error {
		link, pos, found := seek(tx, k)
		if removed = 0; found {
			tx.Write(link, tx.Read(pos+1))
			removed = pos
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		l.free = append(l.free, removed)
	}
	return removed != 0
}

// TestDynListSemantics checks the set semantics of the pointer-chasing list
// the dynamic alloc pins drive: duplicate inserts and repeated removes
// report false, a freed node is reused, and the keys stay sorted.
func TestDynListSemantics(t *testing.T) {
	for _, eng := range stm.Engines() {
		l := newWordList(t, []stm.Option{stm.WithEngine(eng)}, 8, 0)
		for _, k := range []uint64{5, 1, 9, 3} {
			if !l.insert(t, k) {
				t.Fatalf("%v: insert(%d) = false", eng, k)
			}
		}
		if l.insert(t, 5) {
			t.Fatalf("%v: duplicate insert(5) = true, want false", eng)
		}
		for _, tc := range []struct {
			k    uint64
			want bool
		}{{1, true}, {2, false}, {3, true}, {5, true}, {9, true}, {10, false}} {
			if got := l.contains(t, tc.k); got != tc.want {
				t.Errorf("%v: contains(%d) = %v, want %v", eng, tc.k, got, tc.want)
			}
		}
		if !l.remove(t, 3) {
			t.Fatalf("%v: remove(3) = false", eng)
		}
		if l.remove(t, 3) {
			t.Fatalf("%v: second remove(3) = true, want false", eng)
		}
		if l.contains(t, 3) {
			t.Errorf("%v: contains(3) after remove, want false", eng)
		}
		// The freed node is reusable: these five inserts fill all eight.
		for _, k := range []uint64{7, 11, 13, 15, 17} {
			if !l.insert(t, k) {
				t.Fatalf("%v: insert(%d) into the last free nodes = false", eng, k)
			}
		}
		// Keys stay sorted: walk the raw words.
		var keys []uint64
		for pos := l.m.Peek(0); pos != 0; pos = l.m.Peek(int(pos) + 1) {
			keys = append(keys, l.m.Peek(int(pos)))
		}
		if got, want := fmt.Sprint(keys), fmt.Sprint([]uint64{1, 5, 7, 9, 11, 13, 15, 17}); got != want {
			t.Fatalf("%v: list keys = %v, want %v", eng, got, want)
		}
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

// TestAllocsTypedConvenienceForms pins what the typed forms whose cost is
// not zero pay per call, so it stays visible instead of creeping:
// Var.Update's closure, and an Atomically whose String codec decodes into a
// fresh string.
func TestAllocsTypedConvenienceForms(t *testing.T) {
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 16, eng)
		v, err := stm.Alloc(m, stm.Int64())
		if err != nil {
			t.Fatal(err)
		}
		assertAllocs(t, eng.String()+"/Var.Update", 1, func() {
			v.Update(func(x int64) int64 { return x + 1 })
		})
		name, err := stm.Alloc(m, stm.String(16))
		if err != nil {
			t.Fatal(err)
		}
		name.Store("service-a")
		rmw := func(tx *stm.DTx) error {
			stm.WriteVar(tx, name, stm.ReadVar(tx, name))
			stm.WriteVar(tx, v, stm.ReadVar(tx, v)+1)
			return nil
		}
		assertAllocs(t, eng.String()+"/Atomically/String(16)", 2, func() {
			if err := m.Atomically(rmw); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocsVarCompareAndSwap(t *testing.T) {
	// The typed CAS contract: one-word and multi-word vars stay
	// allocation-free, success or failure.
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

func TestTryIntoSnapshotSemantics(t *testing.T) {
	m := mustNew(t, 4)
	if err := m.WriteAll([]int{0, 1, 2}, []uint64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	// Old values and new ones are index-aligned with the data set: the
	// snapshot of words 0 and 2 arrives in that order, and each new value
	// lands on its word.
	tx := mustPrepare(t, m, []int{0, 2})
	var old [2]uint64
	if !tx.TryInto(func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+2 }, old[:]) {
		t.Fatal("uncontended TryInto failed")
	}
	if old[0] != 10 || old[1] != 30 {
		t.Errorf("old = %v, want [10 30]", old)
	}
	if got := m.Peek(0); got != 11 {
		t.Errorf("Peek(0) = %d, want 11", got)
	}
	if got := m.Peek(2); got != 32 {
		t.Errorf("Peek(2) = %d, want 32", got)
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
		swapWord(m, i, initial)
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
				if a > b {
					a, b = b, a
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
					addWord(m, loc, delta)
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
