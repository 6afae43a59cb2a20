package core

// Tests for read lists (Rec.SetReadSet): the words an attempt read, carried
// beside its data set and validated, never owned, locked, agreed or
// installed for being on the list. A word may be on both, when the attempt
// read it and then wrote it. On ST the attempt owns its data set, steps the
// commit epoch, and settles the list with one verdict for every participant
// — for free when its step is the first since the reads were taken, by a
// pass over the words otherwise (DESIGN.md §9, "Commit: own the writes,
// validate the reads"). On TL2 the list is checked by stamp against its own
// sample after the clock step (DESIGN.md §11). Either way a stale list fails
// the attempt with ConflictInfo.ReadStale, having installed nothing.

import (
	"sync"
	"testing"
)

// splitRec draws a record whose data set is writes and whose read list is
// reads, validated against their current values under the current epoch as
// the sample; f computes the data set's new values.
func splitRec(m *Memory, writes, reads []int, f updateFunc) *Rec {
	exp := make([]uint64, len(reads))
	for i, a := range reads {
		exp[i] = m.Peek(a)
	}
	rec := armedRec(m, writes, f)
	rec.SetReadSet(reads, exp, m.CommitEpoch())
	return rec
}

// runSplit runs r once and returns its outcome, the old values of its data
// set on commit, and the conflict report on failure.
func runSplit(m *Memory, r *Rec) (ok bool, old []uint64, info ConflictInfo) {
	old = make([]uint64, r.Size())
	ok = m.RunAttemptConflict(r, r.calc, old, &info)
	return ok, old, info
}

// wantStale checks a failed split attempt's report: the stale word at read
// list index i, and nothing of data set writes installed (each still holds
// its value in was) or left owned.
func wantStale(t *testing.T, m *Memory, ok bool, info ConflictInfo, i, addr int, writes []int, was []uint64) {
	t.Helper()
	if ok {
		t.Fatal("split attempt committed over a stale read")
	}
	if !info.ReadStale || info.Index != i || info.Addr != addr {
		t.Errorf("report = %+v, want ReadStale at read-list index %d (word %d)", info, i, addr)
	}
	for j, a := range writes {
		if m.Owner(a) != nil || m.Peek(a) != was[j] {
			t.Errorf("word %d = %d owned by %p after a stale attempt, want %d and unowned", a, m.Peek(a), m.Owner(a), was[j])
		}
	}
}

func TestSplitCommitOwnsOnlyWrites(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tryOnce(m, []int{1, 3, 5}, chaosAdd(4)); !ok {
		t.Fatal("seeding transaction failed")
	}
	m.ResetStats()
	rec := &chaosRecorder{}
	record := rec.hook(m)
	var readsOwned []bool
	m.SetChaos(func(e ChaosEvent) {
		record(e)
		readsOwned = append(readsOwned, m.Owner(1) != nil, m.Owner(5) != nil)
	})
	r := splitRec(m, []int{3}, []int{5, 1}, chaosAdd(1))
	ok, old, _ := runSplit(m, r)
	if !ok {
		t.Fatal("uncontended split attempt failed")
	}
	m.SetChaos(nil)
	for _, p := range []ChaosPoint{ChaosSTPostLock, ChaosSTPostStep} {
		fires := rec.byPoint(p)
		if len(fires) != 1 {
			t.Fatalf("%v fired %d times, want 1", p, len(fires))
		}
		e := rec.events[fires[0]]
		if e.Writes != 1 || len(e.Addrs) != 1 || e.Addrs[0] != 3 || !rec.owned[fires[0]][0] {
			t.Errorf("%v: Writes=%d Addrs=%v owned=%v, want the one written word 3, owned", p, e.Writes, e.Addrs, rec.owned[fires[0]])
		}
	}
	for i, o := range readsOwned {
		if o {
			t.Errorf("a read-list word was owned at chaos fire %d", i/2)
		}
	}
	if got := [3]uint64{m.Peek(1), m.Peek(3), m.Peek(5)}; got != [3]uint64{4, 5, 4} {
		t.Errorf("words = %v, want [4 5 4]", got)
	}
	if len(old) != 1 || old[0] != 4 {
		t.Errorf("old values = %v, want [4]: the data set alone", old)
	}
	if s := m.Stats(); s.Commits != 1 || s.OwnedWords != 1 {
		t.Errorf("commits=%d owned words=%d, want 1 and 1", s.Commits, s.OwnedWords)
	}
	// A static attempt still owns its whole data set.
	if _, ok := tryOnce(m, []int{2, 6}, chaosAdd(1)); !ok {
		t.Fatal("static attempt failed")
	}
	if s := m.Stats(); s.OwnedWords != 3 {
		t.Errorf("owned words = %d after a two-word static commit, want 3", s.OwnedWords)
	}
}

// TestSplitCommitFirstStepLooksAtNothing: a step that returns sample+1 is
// the verdict. The read-list word is owned by a committer parked before its
// own step — a pass would call it stale — and the split commit still
// installs, linearized at its step, ahead of the parked one.
func TestSplitCommitFirstStepLooksAtNothing(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.SetChaos(func(e ChaosEvent) {
		if e.Point == ChaosSTPostLock && len(e.Addrs) == 1 && e.Addrs[0] == 1 {
			once.Do(func() { close(parked); <-release })
		}
	})
	defer m.SetChaos(nil)
	done := make(chan bool, 1)
	go func() {
		_, ok := tryOnce(m, []int{1}, chaosAdd(1))
		done <- ok
	}()
	<-parked
	r := splitRec(m, []int{0}, []int{1}, chaosAdd(1))
	if ok, _, _ := runSplit(m, r); !ok {
		t.Fatal("split attempt failed")
	}
	if m.Peek(0) != 1 || m.Peek(1) != 0 {
		t.Errorf("word 0 = %d, word 1 = %d; want 1 and 0 (valid on the step alone)", m.Peek(0), m.Peek(1))
	}
	close(release)
	if !<-done {
		t.Fatal("parked committer failed")
	}
	if m.Peek(1) != 1 {
		t.Errorf("word 1 = %d, want 1 (the parked commit, after the split one)", m.Peek(1))
	}
}

// TestSplitCommitStaleRead: a commit lands on the read-list word after the
// sample, so the split commit's step is not the first and the pass finds
// the word moved: the attempt fails at that word with ReadStale, counted as
// st-validate, having installed nothing and released its write.
func TestSplitCommitStaleRead(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(ObsConfig{Level: ObsCounters})
	r := splitRec(m, []int{0}, []int{2, 1}, chaosAdd(1))
	if _, ok := tryOnce(m, []int{1}, chaosAdd(7)); !ok {
		t.Fatal("foreign commit failed")
	}
	m.ResetStats()
	ok, _, info := runSplit(m, r)
	wantStale(t, m, ok, info, 1, 1, []int{0}, []uint64{0})
	if s := m.Stats(); s.Failures != 1 || s.STValidateAborts != 1 || s.Helps != 0 || m.ConflictCount(1) != 1 {
		t.Errorf("failures=%d st-validate=%d helps=%d conflicts at word 1=%d, want 1, 1, 0, 1",
			s.Failures, s.STValidateAborts, s.Helps, m.ConflictCount(1))
	}
	// Moved and moved back is a pass: the verdict compares values.
	if _, ok := tryOnce(m, []int{1}, func([]uint64) []uint64 { return []uint64{0} }); !ok {
		t.Fatal("foreign commit failed")
	}
	r = splitRec(m, []int{0}, []int{2, 1}, chaosAdd(1))
	r.sample-- // a commit stepped since the sample: the pass runs
	if ok, _, _ := runSplit(m, r); !ok || m.Peek(0) != 1 {
		t.Errorf("ok=%v word 0 = %d after a pass over a current read, want true and 1", ok, m.Peek(0))
	}
}

// TestChaosSTPostStepPhase: the point fires on the initiator of an attempt
// with a read list only, after the step and before the verdict — its write
// set owned and uninstalled, its reads unowned — so a commit that lands on
// a read during the park is one the pass must see. The split commit's reads
// are dated before an earlier commit's step, so its own step is not the
// first since them and the pass runs, after the park.
func TestChaosSTPostStepPhase(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tryOnce(m, []int{6}, chaosAdd(1)); !ok {
		t.Fatal("seeding transaction failed")
	}
	e0 := m.CommitEpoch()
	var r *Rec
	fired := 0
	foreign := make(chan struct{})
	m.SetChaos(func(e ChaosEvent) {
		if e.Point != ChaosSTPostStep {
			return
		}
		fired++
		if got := m.CommitEpoch(); got != e0+1 {
			t.Errorf("epoch at st-post-step = %d, want the step %d", got, e0+1)
		}
		if v := r.verdict.Load(); v != statusNull {
			t.Errorf("verdict already settled at st-post-step: %d", v)
		}
		if m.Owner(2) != nil || m.Owner(4) != r || m.Peek(4) != 0 {
			t.Errorf("st-post-step: read owned by %p, write owned by %p (want %p) holding %d", m.Owner(2), m.Owner(4), r, m.Peek(4))
		}
		// A commit to the read word lands while the split commit is parked
		// (from another goroutine, as the hook contract asks).
		go func() {
			if _, ok := tryOnce(m, []int{2}, chaosAdd(1)); !ok {
				t.Error("foreign commit failed")
			}
			close(foreign)
		}()
		<-foreign
	})
	defer m.SetChaos(nil)
	r = splitRec(m, []int{4}, []int{2}, chaosAdd(1))
	r.sample = e0 - 1 // read before the seeding commit stepped
	ok, _, info := runSplit(m, r)
	if fired != 1 {
		t.Fatalf("st-post-step fired %d times, want 1", fired)
	}
	wantStale(t, m, ok, info, 0, 2, []int{4}, []uint64{0})
	// Static attempts own everything and never fire the point.
	fired = 0
	if _, ok := tryOnce(m, []int{2, 4}, chaosAdd(1)); !ok || fired != 0 {
		t.Errorf("static attempt: ok=%v, st-post-step fired %d times, want true and 0", ok, fired)
	}
}

// TestReadPassPublishesWhole: two read-list words are never both 0 — a
// writer swaps them between (0, 1) and (1, 0) in single commits — but each
// is 0 half the time. A split commit that expects them both 0 must find a
// read stale every time. A pass that a swap lands inside loads each of the
// two while it is 0 (the words between them keep the pass long enough for a
// whole commit to fit) and then finds the epoch moved; it proves nothing
// and must leave nothing behind. A validation that kept each value as it
// loaded it, and let its retry adopt them, would pass the pair.
func TestReadPassPublishesWhole(t *testing.T) {
	const lo, hi = 1, 255
	m, err := NewMemory(hi + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tryOnce(m, []int{hi}, chaosAdd(1)); !ok {
		t.Fatal("seeding transaction failed")
	}
	swap := func(old []uint64) []uint64 { return []uint64{old[1], old[0]} }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tryOnce(m, []int{lo, hi}, swap)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	reads := make([]int, hi)
	for i := range reads {
		reads[i] = lo + i
	}
	exp := make([]uint64, hi)
	for i := 0; i < 5000; i++ {
		r := armedRec(m, []int{0}, chaosAdd(1))
		r.SetReadSet(reads, exp, 0) // the seeding commit stepped since
		ok, _, info := runSplit(m, r)
		if ok {
			t.Fatalf("attempt %d validated both words at 0, a state they never held", i)
		}
		if !info.ReadStale || (info.Addr != lo && info.Addr != hi) {
			t.Fatalf("attempt %d failed with %+v, want a stale read of word %d or %d", i, info, lo, hi)
		}
	}
	if m.Peek(0) != 0 {
		t.Errorf("word 0 = %d, want 0: no split attempt may install", m.Peek(0))
	}
}

// TestSplitTL2StaleReadFailsValidate: on TL2 a read-list word stamped past
// the sample fails the attempt after its lock phase — tl2-validate, with
// ReadStale — and the attempt releases its locks having installed nothing.
// A word that moved without changing the read list's words does not.
func TestSplitTL2StaleReadFailsValidate(t *testing.T) {
	m, _ := newTL2(t, 8)
	m.Observe(ObsConfig{Level: ObsCounters})
	r := splitRec(m, []int{0}, []int{3, 1}, chaosAdd(1))
	if _, ok := tryOnce(m, []int{1}, chaosAdd(7)); !ok {
		t.Fatal("foreign commit failed")
	}
	m.ResetStats()
	ok, _, info := runSplit(m, r)
	wantStale(t, m, ok, info, 1, 1, []int{0}, []uint64{0})
	if s := m.Stats(); s.Failures != 1 || s.TL2ValidateAborts != 1 || m.ConflictCount(1) != 1 {
		t.Errorf("failures=%d tl2-validate=%d conflicts at word 1=%d, want 1, 1, 1", s.Failures, s.TL2ValidateAborts, m.ConflictCount(1))
	}
	// Under a clock moved by a commit to another word the list validates.
	r = splitRec(m, []int{0}, []int{3, 1}, chaosAdd(1))
	if _, ok := tryOnce(m, []int{5}, chaosAdd(1)); !ok {
		t.Fatal("foreign commit failed")
	}
	if ok, _, _ := runSplit(m, r); !ok || m.Peek(0) != 1 {
		t.Errorf("ok=%v word 0 = %d over a current read list, want true and 1", ok, m.Peek(0))
	}
}

// TestSplitTL2SkipNeedsTheSample: the validation is skipped only when the
// attempt's clock CAS moved the clock from the read list's own sample. Here
// the attempt starts with the clock still at the sample, and a commit to a
// read-list word lands while it holds its locks, before its clock step: the
// CAS fails, the list is validated, and the moved word is caught.
func TestSplitTL2SkipNeedsTheSample(t *testing.T) {
	m, _ := newTL2(t, 8)
	foreign := make(chan struct{})
	var once sync.Once
	m.SetChaos(func(e ChaosEvent) {
		if e.Point != ChaosTL2PostLock || e.Addrs[0] != 0 {
			return
		}
		once.Do(func() {
			go func() {
				if _, ok := tryOnce(m, []int{2}, chaosAdd(1)); !ok {
					t.Error("foreign commit failed")
				}
				close(foreign)
			}()
			<-foreign
		})
	})
	defer m.SetChaos(nil)
	r := splitRec(m, []int{0}, []int{2}, chaosAdd(1))
	ok, _, info := runSplit(m, r)
	wantStale(t, m, ok, info, 0, 2, []int{0}, []uint64{0})
}

// TestSplitTL2NoWriteAttempt: an attempt that changes nothing commits as a
// pure read at its clock sample rv, so its read list must hold there: it is
// validated unless rv is the list's own sample. A moved read fails the
// attempt; a clock moved by an unrelated commit costs only the check.
func TestSplitTL2NoWriteAttempt(t *testing.T) {
	m, e := newTL2(t, 8)
	identity := func(old []uint64) []uint64 { return append([]uint64(nil), old...) }
	r := splitRec(m, []int{0}, []int{1}, identity)
	if _, ok := tryOnce(m, []int{1}, chaosAdd(1)); !ok {
		t.Fatal("foreign commit failed")
	}
	clock := e.clock.Load()
	ok, _, info := runSplit(m, r)
	wantStale(t, m, ok, info, 0, 1, []int{0}, []uint64{0})
	if e.clock.Load() != clock {
		t.Errorf("a failed pure read moved the clock")
	}
	r = splitRec(m, []int{0}, []int{1}, identity)
	if _, ok := tryOnce(m, []int{4}, chaosAdd(1)); !ok {
		t.Fatal("foreign commit failed")
	}
	if ok, _, _ := runSplit(m, r); !ok {
		t.Error("pure read over a current read list failed under a moved clock")
	}
	r = splitRec(m, []int{0}, []int{1}, identity)
	if ok, _, _ := runSplit(m, r); !ok {
		t.Error("pure read under an unmoved clock failed")
	}
}

// TestReadListOwnWrite: a read-list word the record also writes — read and
// then written — is owned (ST) or locked (TL2) by the record itself when the
// list is validated. That owner is no conflict, but the word's value (ST) or
// stamp (TL2) is still checked: unchanged since the caller's read, it
// passes; moved between the read and the acquisition, it fails the attempt
// with ReadStale. Each attempt starts after a commit has moved the epoch
// past its sample, so neither engine may skip the check.
func TestReadListOwnWrite(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(8, kind)
			if err != nil {
				t.Fatal(err)
			}
			var held []bool
			m.SetChaos(func(e ChaosEvent) {
				if (e.Point == ChaosSTPostStep || e.Point == ChaosTL2PostLock) && e.Addrs[0] == 0 {
					held = append(held, m.Owner(3) != nil && m.Owner(3) == m.Owner(0))
				}
			})
			defer m.SetChaos(nil)
			r := splitRec(m, []int{0, 3}, []int{3, 1}, chaosAdd(1))
			if _, ok := tryOnce(m, []int{5}, chaosAdd(1)); !ok {
				t.Fatal("foreign commit failed")
			}
			if ok, old, _ := runSplit(m, r); !ok || old[1] != 0 || m.Peek(0) != 1 || m.Peek(3) != 1 {
				t.Fatalf("ok=%v old=%v words 0, 3 = %d, %d over an unchanged own write, want true, [0 0], 1, 1",
					ok, old, m.Peek(0), m.Peek(3))
			}
			r = splitRec(m, []int{0, 3}, []int{3, 1}, chaosAdd(1))
			if _, ok := tryOnce(m, []int{3}, chaosAdd(7)); !ok {
				t.Fatal("foreign commit failed")
			}
			ok, _, info := runSplit(m, r)
			wantStale(t, m, ok, info, 0, 3, []int{0, 3}, []uint64{1, 8})
			if len(held) != 2 || !held[0] || !held[1] {
				t.Errorf("word 3 held by the record at validation: %v, want [true true]", held)
			}
		})
	}
}
