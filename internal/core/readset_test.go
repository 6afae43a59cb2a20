package core

// Tests for split data sets (Rec.SetReadSet) on the ST engine: the attempt
// owns only the words it writes, steps the commit epoch, and settles the
// words it only read with one verdict for every participant — for free when
// its step is the first since the reads were taken, by a pass over the
// words otherwise (DESIGN.md §9, "Commit: own the writes, validate the
// reads").

import (
	"sync"
	"testing"
)

// splitRec draws a record over addrs that owns the words marked in own and
// validates the others against their current values, under the current
// epoch as the sample; f computes the owned words' new values (its old
// values for read-only words are what the verdict says they are).
func splitRec(m *Memory, addrs []int, own []bool, f updateFunc) *Rec {
	exp := make([]uint64, len(addrs))
	for i, a := range addrs {
		exp[i] = m.Peek(a)
	}
	rec := armedRec(m, addrs, f)
	rec.SetReadSet(own, exp, m.CommitEpoch())
	return rec
}

// incOwned returns an update adding one to the words marked in own and
// leaving the rest as they are.
func incOwned(own []bool) updateFunc {
	return func(old []uint64) []uint64 {
		nv := append([]uint64(nil), old...)
		for i, o := range own {
			if o {
				nv[i]++
			}
		}
		return nv
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
	addrs, own := []int{1, 3, 5}, []bool{false, true, false}
	rec := &chaosRecorder{}
	m.SetChaos(rec.hook(m))
	r := splitRec(m, addrs, own, incOwned(own))
	old := make([]uint64, 3)
	if !m.RunAttempt(r, r.calc, old) {
		t.Fatal("uncontended split attempt failed")
	}
	m.SetChaos(nil)
	for _, p := range []ChaosPoint{ChaosSTPostLock, ChaosSTPostStep} {
		fires := rec.byPoint(p)
		if len(fires) != 1 {
			t.Fatalf("%v fired %d times, want 1", p, len(fires))
		}
		i := fires[0]
		if w := rec.events[i].Writes; w != 1 {
			t.Errorf("%v: Writes = %d, want 1 (the one owned word)", p, w)
		}
		for j, a := range rec.events[i].Addrs {
			if rec.owned[i][j] != own[j] {
				t.Errorf("%v: word %d owned=%v, want %v", p, a, rec.owned[i][j], own[j])
			}
		}
	}
	if got := [3]uint64{m.Peek(1), m.Peek(3), m.Peek(5)}; got != [3]uint64{4, 5, 4} {
		t.Errorf("words = %v, want [4 5 4]", got)
	}
	if got := [3]uint64{old[0], old[1], old[2]}; got != [3]uint64{4, 4, 4} {
		t.Errorf("old values = %v, want [4 4 4] (the validated reads read as their expected values)", got)
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
// the verdict. The read-only word is owned by a committer parked before its
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
		if e.Point == ChaosSTPostLock && len(e.Addrs) == 1 {
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
	own := []bool{true, false}
	r := splitRec(m, []int{0, 1}, own, incOwned(own))
	old := make([]uint64, 2)
	if !m.RunAttempt(r, r.calc, old) {
		t.Fatal("split attempt failed")
	}
	close(release)
	if !<-done {
		t.Fatal("parked committer failed")
	}
	if m.Peek(0) != 1 || old[1] != 0 {
		t.Errorf("word 0 = %d, old value of word 1 = %d; want 1 and 0 (valid on the step alone)", m.Peek(0), old[1])
	}
	if m.Peek(1) != 1 {
		t.Errorf("word 1 = %d, want 1 (the parked commit, after the split one)", m.Peek(1))
	}
}

// TestSplitCommitStaleRead: a commit lands on the read-only word after the
// sample, so the split commit's step is not the first and the pass finds
// the word moved: the verdict is stale at that word, the calc sees a value
// other than the expected one there, and (here) installs nothing.
func TestSplitCommitStaleRead(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	own := []bool{true, false}
	r := splitRec(m, []int{0, 1}, own, func(old []uint64) []uint64 {
		if old[1] != 0 {
			return append([]uint64(nil), old...) // stale: commit a no-op
		}
		return []uint64{old[0] + 1, old[1]}
	})
	if _, ok := tryOnce(m, []int{1}, chaosAdd(7)); !ok {
		t.Fatal("foreign commit failed")
	}
	old := make([]uint64, 2)
	if !m.RunAttempt(r, r.calc, old) {
		t.Fatal("split attempt failed")
	}
	if old[1] == 0 {
		t.Errorf("old value of the moved read = 0, want anything but the expected 0")
	}
	if m.Peek(0) != 0 {
		t.Errorf("word 0 = %d, want 0: the commit validated against a moved read", m.Peek(0))
	}
	// Moved and moved back is a pass too: the verdict compares values.
	if _, ok := tryOnce(m, []int{1}, func([]uint64) []uint64 { return []uint64{0} }); !ok {
		t.Fatal("foreign commit failed")
	}
	r = splitRec(m, []int{0, 1}, own, incOwned(own))
	r.sample-- // a commit stepped since the sample: the pass runs
	if !m.RunAttempt(r, r.calc, old) || m.Peek(0) != 1 {
		t.Errorf("word 0 = %d after a pass over a current read, want 1", m.Peek(0))
	}
}

// TestChaosSTPostStepPhase: the point fires on the initiator of a split
// attempt only, after the step and before the verdict — its write set
// owned and uninstalled, its reads unowned — so a commit that lands on a
// read during the park is one the pass must see. The split commit's reads
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
	own := []bool{false, true}
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
	r = splitRec(m, []int{2, 4}, own, incOwned(own))
	r.sample = e0 - 1 // read before the seeding commit stepped
	old := make([]uint64, 2)
	if !m.RunAttempt(r, r.calc, old) {
		t.Fatal("split attempt failed")
	}
	if fired != 1 {
		t.Fatalf("st-post-step fired %d times, want 1", fired)
	}
	if old[0] == 0 {
		t.Errorf("the read moved during the park, but the verdict passed it")
	}
	// Static attempts own everything and never fire the point.
	fired = 0
	if _, ok := tryOnce(m, []int{2, 4}, chaosAdd(1)); !ok || fired != 0 {
		t.Errorf("static attempt: ok=%v, st-post-step fired %d times, want true and 0", ok, fired)
	}
}

// TestReadPassPublishesWhole: two read-only words are never both 0 — a
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
	addrs := make([]int, hi+1)
	own := make([]bool, hi+1)
	for i := range addrs {
		addrs[i] = i
	}
	own[0] = true
	exp := make([]uint64, hi+1)
	old := make([]uint64, hi+1)
	for i := 0; i < 5000; i++ {
		r := armedRec(m, addrs, incOwned(own))
		r.SetReadSet(own, exp, 0) // the seeding commit stepped since
		if !m.RunAttempt(r, r.calc, old) {
			continue
		}
		if old[lo] == 0 && old[hi] == 0 {
			t.Fatalf("attempt %d validated both words at 0, a state they never held", i)
		}
	}
}
