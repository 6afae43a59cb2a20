package core

import (
	"sync"
	"testing"
)

// blockWord installs a never-completing dummy owner on loc so that every
// attempt touching loc fails. The returned release function removes it.
// The dummy is unstable (stable=false), so failing attempts do not try to
// run its protocol.
func blockWord(m *Memory, loc int) (release func()) {
	rec := armedRec(m, []int{loc}, func(old []uint64) []uint64 { return old })
	m.word(loc).owner.Store(rec)
	return func() { m.word(loc).owner.CompareAndSwap(rec, nil) }
}

func TestConflictCountPerWord(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	release := blockWord(m, 5)

	const fails = 17
	for i := 0; i < fails; i++ {
		if _, ok := tryOnce(m, []int{2, 5}, func(old []uint64) []uint64 {
			return []uint64{old[0], old[1]}
		}); ok {
			t.Fatal("attempt against a blocked word committed")
		}
	}
	release()

	if got := m.ConflictCount(5); got != fails {
		t.Errorf("ConflictCount(5) = %d, want %d", got, fails)
	}
	if got := m.ConflictCount(2); got != 0 {
		t.Errorf("ConflictCount(2) = %d, want 0 (acquisition dies at 5, not 2)", got)
	}
}

// TestRunAttemptConflictReportsOwner checks that an attempt dying at a word
// another record owns reports that word and its index.
func TestRunAttemptConflictReportsOwner(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	release := blockWord(m, 3)
	defer release()

	rec := m.Begin(2)
	rec.Addrs()[0] = 1
	rec.Addrs()[1] = 3
	var info ConflictInfo
	info.Addr = -7 // ensure the attempt overwrites it
	ok := m.RunAttemptConflict(rec, func(_ any, old, new []uint64, _ bool) {
		copy(new, old)
	}, nil, &info)
	if ok {
		t.Fatal("attempt against a blocked word committed")
	}
	if info.Addr != 3 || info.Index != 1 || info.ReadStale {
		t.Errorf("conflict = %+v, want addr 3 (index 1), not a stale read", info)
	}
}

func TestRunAttemptConflictSuccessLeavesInfoUntouched(t *testing.T) {
	m, err := NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	rec := m.Begin(1)
	rec.Addrs()[0] = 0
	info := ConflictInfo{Addr: -1}
	if !m.RunAttemptConflict(rec, func(_ any, old, new []uint64, _ bool) {
		new[0] = old[0] + 1
	}, nil, &info) {
		t.Fatal("uncontended attempt failed")
	}
	if info.Addr != -1 {
		t.Errorf("info mutated on success: %+v", info)
	}
}

func TestResetStats(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	release := blockWord(m, 1)
	for i := 0; i < 5; i++ {
		tryOnce(m, []int{1}, func(old []uint64) []uint64 { return old })
	}
	release()
	for i := 0; i < 5; i++ {
		if _, ok := tryOnce(m, []int{1}, func(old []uint64) []uint64 { return old }); !ok {
			t.Fatal("uncontended attempt failed")
		}
	}

	st := m.Stats()
	if st.Attempts != 10 || st.Commits != 5 || st.Failures != 5 {
		t.Fatalf("pre-reset stats = %+v, want 10/5/5", st)
	}
	if got := m.ConflictCount(1); got != 5 {
		t.Fatalf("pre-reset ConflictCount(1) = %d, want 5", got)
	}

	m.ResetStats()
	st = m.Stats()
	if st.Attempts != 0 || st.Commits != 0 || st.Failures != 0 || st.Helps != 0 {
		t.Errorf("post-reset stats = %+v, want all zero", st)
	}
	if got := m.ConflictCount(1); got != 0 {
		t.Errorf("post-reset ConflictCount(1) = %d, want 0", got)
	}

	// The window reopens: new activity counts from zero.
	if _, ok := tryOnce(m, []int{1}, func(old []uint64) []uint64 { return old }); !ok {
		t.Fatal("uncontended attempt failed")
	}
	if st := m.Stats(); st.Attempts != 1 || st.Commits != 1 {
		t.Errorf("post-reset activity stats = %+v, want 1 attempt / 1 commit", st)
	}
}

func TestResetStatsConcurrent(t *testing.T) {
	// ResetStats racing live traffic must not corrupt counters beyond the
	// advisory window semantics: after everything quiesces, a final reset
	// leaves all counters zero and the memory still works.
	m, err := NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tryOnce(m, []int{w % 4}, func(old []uint64) []uint64 {
					return []uint64{old[0] + 1}
				})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		m.ResetStats()
	}
	close(stop)
	wg.Wait()
	m.ResetStats()
	if st := m.Stats(); st.Attempts != 0 || st.Commits != 0 || st.Failures != 0 {
		t.Errorf("final stats = %+v, want zero", st)
	}
}
