package core

// Tests for the commit epoch (Memory.CommitEpoch): it steps on every
// value-changing commit and on no other, on both engines, and the step
// falls where the dynamic layer's snapshot argument needs it — every word
// the commit will install already held, none installed — whoever of an ST
// commit's participants gets there first.

import "testing"

func TestCommitEpochStepsOnlyOnValueChange(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(8, kind)
			if err != nil {
				t.Fatal(err)
			}
			identity := func(old []uint64) []uint64 { return append([]uint64(nil), old...) }
			e0 := m.CommitEpoch()
			if _, ok := tryOnce(m, []int{1, 3}, identity); !ok {
				t.Fatal("uncontended attempt failed")
			}
			if got := m.CommitEpoch(); got != e0 {
				t.Errorf("a commit that changed no value moved the epoch %d -> %d", e0, got)
			}
			if _, ok := tryOnce(m, []int{1, 3}, chaosAdd(1)); !ok {
				t.Fatal("uncontended attempt failed")
			}
			e1 := m.CommitEpoch()
			if e1 <= e0 {
				t.Errorf("a value-changing commit left the epoch at %d", e1)
			}
			// Storing the values the words already hold changes nothing.
			if _, ok := tryOnce(m, []int{1, 3}, func([]uint64) []uint64 { return []uint64{1, 1} }); !ok {
				t.Fatal("uncontended attempt failed")
			}
			if got := m.CommitEpoch(); got != e1 {
				t.Errorf("an equal-value write moved the epoch %d -> %d", e1, got)
			}
		})
	}
}

func TestCommitEpochTL2StepPrecedesInstall(t *testing.T) {
	m, _ := newTL2(t, 8)
	e0 := m.CommitEpoch()
	fired := 0
	m.SetChaos(func(e ChaosEvent) {
		switch e.Point {
		case ChaosTL2PostLock:
			if got := m.CommitEpoch(); got != e0 {
				t.Errorf("epoch moved to %d before the clock step", got)
			}
		case ChaosTL2PostClock:
			fired++
			if got := m.CommitEpoch(); got <= e0 {
				t.Errorf("epoch still %d after the clock step", got)
			}
			for _, a := range e.Addrs {
				if m.Owner(a) == nil || m.Peek(a) != 0 {
					t.Errorf("word %d at the step: owner=%v value=%d, want locked and not installed", a, m.Owner(a), m.Peek(a))
				}
			}
		}
	})
	defer m.SetChaos(nil)
	if _, ok := tryOnce(m, []int{2, 5}, chaosAdd(1)); !ok {
		t.Fatal("uncontended attempt failed")
	}
	if fired != 1 {
		t.Fatalf("ChaosTL2PostClock fired %d times, want 1", fired)
	}
}

func TestCommitEpochSTHelperSteps(t *testing.T) {
	// The initiator is parked with its data set owned and the epoch not yet
	// stepped. A helper completes the commit: the helper's step has to have
	// come before the helper's installs, so by the time the new values are
	// visible the epoch has moved — with the initiator still parked.
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	e0 := m.CommitEpoch()
	parked, release := make(chan struct{}), make(chan struct{})
	m.SetChaos(func(e ChaosEvent) {
		if e.Point == ChaosSTPostLock {
			if got := m.CommitEpoch(); got != e0 {
				t.Errorf("epoch moved to %d with nothing decided to install", got)
			}
			close(parked)
			<-release
		}
	})
	defer m.SetChaos(nil)
	done := make(chan bool, 1)
	go func() {
		_, ok := tryOnce(m, []int{2, 5}, chaosAdd(1))
		done <- ok
	}()
	<-parked
	if got := *m.StableLoadBox(5); got != 1 { // helps the parked owner
		t.Fatalf("helped word = %d, want 1", got)
	}
	if got := m.CommitEpoch(); got <= e0 {
		t.Errorf("helper installed the commit but the epoch is still %d", got)
	}
	close(release)
	if !<-done {
		t.Fatal("parked attempt failed")
	}
	if m.Peek(2) != 1 || m.Peek(5) != 1 {
		t.Errorf("words = %d %d, want 1 1 (the initiator's repeat step installs nothing)", m.Peek(2), m.Peek(5))
	}
}

func TestNoteSnapshotExtensions(t *testing.T) {
	m, err := NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	m.NoteSnapshotExtensions(StatShard(), 2, 30, 1, 0)
	m.NoteSnapshotExtensions(StatShard(), 1, 5, 0, 1)
	m.NoteSnapshotExtensions(StatShard(), 0, 0, 0, 1)
	if s := m.Stats(); s.SnapshotExtensions != 3 || s.SnapshotRechecked != 35 || s.SnapshotStale != 1 || s.ReadOnlyCommits != 2 {
		t.Errorf("extensions=%d rechecked=%d stale=%d read-only=%d, want 3 35 1 2",
			s.SnapshotExtensions, s.SnapshotRechecked, s.SnapshotStale, s.ReadOnlyCommits)
	}
	m.ResetStats()
	if s := m.Stats(); s.SnapshotExtensions != 0 || s.SnapshotRechecked != 0 || s.SnapshotStale != 0 || s.ReadOnlyCommits != 0 {
		t.Errorf("after reset: extensions=%d rechecked=%d stale=%d read-only=%d",
			s.SnapshotExtensions, s.SnapshotRechecked, s.SnapshotStale, s.ReadOnlyCommits)
	}
}
