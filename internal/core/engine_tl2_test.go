package core

// White-box tests for the TL2 engine's protocol specifics: the read-only
// commit that never touches the clock, the stamp/clock discipline of a
// writing commit, conflict telemetry on lock and validation failures, and
// StableLoadBox waiting out (not helping) a commit lock. The cross-engine
// behavioral equivalence is covered by the parameterized harnesses in the
// public packages; these pin the mechanics those tests can't see.

import (
	"sync"
	"testing"
)

func newTL2(t *testing.T, size int) (*Memory, *tl2Engine) {
	t.Helper()
	m, err := NewMemoryEngine(size, EngineTL2)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.engine.(*tl2Engine)
}

func TestTL2EngineKind(t *testing.T) {
	m, e := newTL2(t, 4)
	if m.EngineKind() != EngineTL2 || e.Kind() != EngineTL2 {
		t.Fatal("engine kind mismatch")
	}
	if EngineTL2.String() != "tl2" || EngineST.String() != "st" {
		t.Fatal("engine names mismatch")
	}
}

func TestTL2ReadOnlyCommitSkipsClock(t *testing.T) {
	m, e := newTL2(t, 8)
	if _, ok := tryOnce(m, []int{1, 3}, func(old []uint64) []uint64 {
		return []uint64{old[0], old[1]} // identity: a pure read
	}); !ok {
		t.Fatal("uncontended read-only attempt failed")
	}
	if got := e.clock.Load(); got != 0 {
		t.Errorf("read-only commit moved the clock to %d", got)
	}
	st := m.Stats()
	if st.Commits != 1 || st.Failures != 0 {
		t.Errorf("stats = %+v, want 1 commit, 0 failures", st)
	}
}

func TestTL2WriteStampsAndBumpsClock(t *testing.T) {
	m, e := newTL2(t, 8)
	old, ok := tryOnce(m, []int{2, 5}, func(old []uint64) []uint64 {
		return []uint64{old[0] + 7, old[1]} // word 5 unchanged: excluded from the write set
	})
	if !ok || old[0] != 0 {
		t.Fatalf("attempt: ok=%v old=%v", ok, old)
	}
	if got := e.clock.Load(); got != 1 {
		t.Errorf("clock = %d, want 1", got)
	}
	if got := m.words[2].version.Load(); got != 1 {
		t.Errorf("written word stamp = %d, want 1", got)
	}
	if got := m.words[5].version.Load(); got != 0 {
		t.Errorf("unchanged word stamp = %d, want 0 (equal-value writes must not stamp)", got)
	}
	if m.Peek(2) != 7 {
		t.Errorf("Peek(2) = %d, want 7", m.Peek(2))
	}
	if m.words[2].owner.Load() != nil || m.words[5].owner.Load() != nil {
		t.Error("commit left a lock behind")
	}
}

func TestTL2LockConflictTelemetry(t *testing.T) {
	m, _ := newTL2(t, 8)
	// Park a foreign lock on word 3 and watch an attempt die on it with a
	// conflict report naming the word and a per-word conflict bump.
	blocker := armedRec(m, []int{3}, func(old []uint64) []uint64 { return old })
	m.words[3].owner.Store(blocker)

	rec := m.Begin(2)
	copy(rec.Addrs(), []int{1, 3})
	var info ConflictInfo
	inc := func(_ any, old, new []uint64, _ bool) { new[0], new[1] = old[0]+1, old[1]+1 }
	if m.RunAttemptConflict(rec, inc, nil, &info) {
		t.Fatal("attempt against a locked word committed")
	}
	if info.Index != 1 || info.Addr != 3 || info.ReadStale {
		t.Errorf("conflict = %+v, want index 1 addr 3, not a stale read", info)
	}
	if got := m.ConflictCount(3); got != 1 {
		t.Errorf("ConflictCount(3) = %d, want 1", got)
	}
	m.words[3].owner.Store(nil)
	rec = m.Begin(2)
	copy(rec.Addrs(), []int{1, 3})
	if !m.RunAttempt(rec, inc, nil) {
		t.Fatal("attempt after unlock failed")
	}
}

func TestTL2StaleStampFailsValidation(t *testing.T) {
	m, e := newTL2(t, 8)
	// A stamp ahead of the reader's rv sample must abort the read phase:
	// this is the invisible read's only defense against mixed snapshots.
	m.words[4].version.Store(5)
	var info ConflictInfo
	rec := m.Begin(1)
	rec.Addrs()[0] = 4
	if m.RunAttemptConflict(rec, func(_ any, old, new []uint64, _ bool) { new[0] = old[0] }, nil, &info) {
		t.Fatal("attempt with stale rv committed")
	}
	if info.Addr != 4 || info.Index != 0 {
		t.Errorf("conflict = %+v, want a failure at addr 4", info)
	}
	if got := m.ConflictCount(4); got != 1 {
		t.Errorf("ConflictCount(4) = %d, want 1", got)
	}
	// Once the clock catches up the same read is admissible again.
	e.clock.Store(5)
	rec = m.Begin(1)
	rec.Addrs()[0] = 4
	if !m.RunAttempt(rec, func(_ any, old, new []uint64, _ bool) { new[0] = old[0] }, nil) {
		t.Fatal("attempt with caught-up rv failed")
	}
}

func TestTL2StableLoadBoxWaitsOutLock(t *testing.T) {
	m, _ := newTL2(t, 4)
	if _, ok := tryOnce(m, []int{1}, func(old []uint64) []uint64 {
		return []uint64{11}
	}); !ok {
		t.Fatal("seed write failed")
	}
	// Hold the commit lock; StableLoadBox must not return until released.
	holder := armedRec(m, []int{1}, func(old []uint64) []uint64 { return old })
	m.words[1].owner.Store(holder)
	done := make(chan *uint64)
	go func() { done <- m.StableLoadBox(1) }()
	select {
	case <-done:
		t.Fatal("StableLoadBox returned through a held lock")
	default:
	}
	m.words[1].owner.Store(nil)
	if box := <-done; *box != 11 {
		t.Errorf("StableLoadBox = %d, want 11", *box)
	}
}

func TestTL2ConcurrentAddsConserve(t *testing.T) {
	// The core-level conservation smoke under real contention: commuting
	// adds across overlapping two-word sets, exactly like the pooled-path
	// stress the ST engine has in alloc-land, but on TL2.
	const (
		size    = 4
		workers = 8
		ops     = 3_000
	)
	m, _ := newTL2(t, size)
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
			for i := 0; i < ops; i++ {
				delta := uint64(next(50) + 1)
				a := next(size)
				b := next(size)
				if a == b {
					b = (b + 1) % size
				}
				if a > b {
					a, b = b, a
				}
				addrs := [2]int{a, b}
				for {
					rec := m.Begin(2)
					copy(rec.Addrs(), addrs[:])
					ok := m.RunAttempt(rec, func(_ any, old, new []uint64, _ bool) {
						new[0], new[1] = old[0]+delta, old[1]+delta
					}, nil)
					if ok {
						break
					}
				}
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

func TestTL2ReadOnlyValidationSnapshot(t *testing.T) {
	// Regression stress for the post-lock validation of read-only words.
	// Writers keep words 0 and 1 equal (incrementing both in one
	// transaction); mixers read both words without writing them and bump a
	// sink word by 1+(x-y). Every consistent snapshot has x==y, so the sink
	// must end at exactly the number of mixer commits. Validation that
	// loads a read-only word's version before its owner can admit a stale
	// snapshot from a full writer commit landing between the two loads,
	// and the sink drifts by the torn x-y difference.
	const (
		writers = 4
		mixers  = 4
		ops     = 5_000
	)
	m, _ := newTL2(t, 3)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			delta := uint64(w + 1)
			for i := 0; i < ops; i++ {
				for {
					rec := m.Begin(2)
					copy(rec.Addrs(), []int{0, 1})
					if m.RunAttempt(rec, func(_ any, old, new []uint64, _ bool) {
						new[0], new[1] = old[0]+delta, old[1]+delta
					}, nil) {
						break
					}
				}
			}
		}(w)
	}
	commits := make([]uint64, mixers)
	for w := 0; w < mixers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				for {
					rec := m.Begin(3)
					copy(rec.Addrs(), []int{0, 1, 2})
					if m.RunAttempt(rec, func(_ any, old, new []uint64, _ bool) {
						new[0], new[1] = old[0], old[1]
						new[2] = old[2] + 1 + (old[0] - old[1])
					}, nil) {
						commits[w]++
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var want uint64
	for _, c := range commits {
		want += c
	}
	if got := m.Peek(2); got != want {
		t.Errorf("sink = %d, want %d: a mixed snapshot passed read-only validation", got, want)
	}
}
