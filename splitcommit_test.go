package stm_test

// A dynamic transaction that wrote something commits on ST owning only the
// words it wrote, its data set; every word it read, written or not, rides
// beside them as a read list, validated once, with one verdict every
// participant adopts (DESIGN.md §9, "Commit: own the writes, validate the
// reads"). Most of these tests park that commit through the chaos seam at
// both of its windows — write set owned (ChaosSTPostLock), epoch stepped
// (ChaosSTPostStep) — and check what the rest of the system may and may not
// do meanwhile.

import (
	"sync"
	"sync/atomic"
	"testing"

	stm "github.com/stm-go/stm"
)

// parkDyn arms m's chaos seam and returns park, which runs f through
// Atomically on another goroutine and returns once the first commit it
// makes is parked at point. release lets it go; done reports its outcome.
func parkDyn(m *stm.Memory, point stm.ChaosPoint, f func(tx *stm.DTx) error) (park, release func(), done <-chan error) {
	var armed atomic.Bool
	parked, rel, out := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	m.SetChaos(func(e stm.ChaosEvent) {
		if e.Point == point && armed.CompareAndSwap(true, false) {
			close(parked)
			<-rel
		}
	})
	var once sync.Once
	park = func() {
		armed.Store(true)
		go func() { out <- m.Atomically(f) }()
		<-parked
	}
	return park, func() { once.Do(func() { close(rel) }) }, out
}

func TestSplitParkedCommitter(t *testing.T) {
	// T copies A into B, and is parked owning B — and only B — before its
	// step. A reader of A and a writer of A both go through without meeting
	// it: nothing of theirs is owned, so nobody helps anybody. The writer's
	// step comes before T's, so T's step is not the first since its read and
	// its pass finds A moved: the attempt fails, installing nothing, and T
	// re-executes, copying the new A.
	const a, b = 0, 1
	m := mustNewEngine(t, 4, stm.ST)
	calls := 0
	park, release, done := parkDyn(m, stm.ChaosSTPostLock, func(tx *stm.DTx) error {
		calls++
		tx.Write(b, tx.Read(a))
		return nil
	})
	defer release()
	park()
	var got [1]uint64
	if err := m.ReadAllInto([]int{a}, got[:]); err != nil || got[0] != 0 {
		t.Fatalf("read of A beside the parked commit = %v, %v", got, err)
	}
	addWord(m, a, 5)
	if s := m.Stats(); s.Helps != 0 {
		t.Errorf("helps = %d during the park, want 0: the parked commit owns only B", s.Helps)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if calls != 2 || m.Peek(b) != 5 {
		t.Errorf("executions=%d B=%d, want 2 and 5 (the first commit validated against a moved A)", calls, m.Peek(b))
	}
}

func TestSplitParkedValidator(t *testing.T) {
	// Write skew, the case one verdict per commit exists for. T1 writes Y if
	// X is 0, T2 writes X if Y is 0; any serial order leaves exactly one of
	// them at 1. T2 reads Y, then T1 runs from the same state and is parked
	// after its step, its read not yet validated, and T2 goes on to commit.
	// T1's step was the first since its read, so T1 is valid whatever
	// happens next, linearized at its step. T2's step is not, and its pass
	// finds Y owned by T1: stale. T2 re-executes, its read of Y helps T1
	// home, and it writes nothing.
	const x, y = 0, 1
	m := mustNewEngine(t, 4, stm.ST)
	t1calls, t2calls := 0, 0
	park, release, done := parkDyn(m, stm.ChaosSTPostStep, func(tx *stm.DTx) error {
		t1calls++
		if tx.Read(x) == 0 {
			tx.Write(y, 1)
		}
		return nil
	})
	defer release()
	if err := m.Atomically(func(tx *stm.DTx) error {
		t2calls++
		v := tx.Read(y)
		if t2calls == 1 {
			park()
		}
		if v == 0 {
			tx.Write(x, 1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.Peek(y) != 1 {
		t.Errorf("Y = %d while T1 is parked, want 1: T2's read must have helped T1 home", m.Peek(y))
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Peek(x)+m.Peek(y) != 1 {
		t.Fatalf("X=%d Y=%d: both transactions wrote (write skew), or neither did", m.Peek(x), m.Peek(y))
	}
	if t1calls != 1 || t2calls != 2 {
		t.Errorf("executions T1=%d T2=%d, want 1 and 2", t1calls, t2calls)
	}
	if s := m.Stats(); s.Helps == 0 {
		t.Errorf("helps = 0, want T2's read of Y to have helped the parked T1")
	}
}

func TestSplitCommitOwnsWhatItWrites(t *testing.T) {
	// The counter's claim: a dynamic commit owns exactly its write set, and
	// one that read a hundred words to write one owns one.
	m := mustNewEngine(t, 128, stm.ST)
	if err := m.Atomically(func(tx *stm.DTx) error {
		var sum uint64
		for i := 1; i <= 100; i++ {
			sum += tx.Read(i)
		}
		tx.Write(0, sum+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Commits != 1 || s.OwnedWords != 1 {
		t.Errorf("commits=%d owned words=%d, want 1 and 1", s.Commits, s.OwnedWords)
	}
}

func TestChaosSTPostStepPublicSurface(t *testing.T) {
	// The point fires once per split commit, on ST only, with Addrs and
	// Writes the written words — the read ones are not in its data set —
	// and its write not installed yet. Static transactions and TL2 never
	// fire it.
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m := mustNewEngine(t, 8, eng)
			var events []stm.ChaosEvent
			var installed []uint64
			m.SetChaos(func(e stm.ChaosEvent) {
				if e.Point == stm.ChaosSTPostStep {
					events = append(events, e)
					installed = append(installed, m.Peek(3))
				}
			})
			defer m.SetChaos(nil)
			if err := m.Atomically(func(tx *stm.DTx) error {
				tx.Write(3, tx.Read(1)+tx.Read(2)+7)
				tx.Write(5, 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			addWord(m, 3, 1)
			want := 0
			if eng == stm.ST {
				want = 1
			}
			if len(events) != want {
				t.Fatalf("st-post-step fired %d times, want %d", len(events), want)
			}
			if want == 1 && (events[0].Writes != 2 || len(events[0].Addrs) != 2 ||
				events[0].Addrs[0] != 3 || events[0].Addrs[1] != 5 || installed[0] != 0) {
				t.Errorf("event Writes=%d Addrs=%v with word 3 = %d, want the 2 written words [3 5], nothing installed",
					events[0].Writes, events[0].Addrs, installed[0])
			}
		})
	}
}

func TestSplitStaleReadThenWrittenFails(t *testing.T) {
	// T reads A and then writes A (and B). While its speculation is in
	// flight another goroutine commits a new A, and T's function returns
	// without reading again, so only the commit can see that A moved. On
	// either engine that ends one way: a failed validation attempt that
	// installs nothing and reports A, then a re-execution that commits — one
	// Commit for the operation, never a committed no-op.
	const a, b = 2, 3
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			var atConflict [2]uint64
			failedAt := -1
			obs := &abortCounter{}
			m := newObserved(t, 4, eng, obs)
			obs.onAbort = func(e *stm.Event) {
				failedAt = e.Addr
				atConflict = [2]uint64{m.Peek(a), m.Peek(b)}
			}
			before := m.Stats()
			calls := 0
			if err := m.Atomically(func(tx *stm.DTx) error {
				calls++
				v := tx.Read(a)
				if calls == 1 {
					done := make(chan struct{})
					go func() { addWord(m, a, 10); close(done) }()
					<-done
				}
				tx.Write(a, v+1)
				tx.Write(b, v+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s := m.Stats()
			validate := s.STValidateAborts - before.STValidateAborts
			if eng == stm.TL2 {
				validate = s.TL2ValidateAborts - before.TL2ValidateAborts
			}
			// The foreign commit is the other Commit.
			if commits, failures := s.Commits-before.Commits, s.Failures-before.Failures; commits != 2 || failures != 1 || validate != 1 {
				t.Errorf("commits=%d failures=%d validate aborts=%d, want 2 (the foreign one and T's), 1, 1", commits, failures, validate)
			}
			if atConflict != [2]uint64{10, 0} {
				t.Errorf("A, B = %v after the failed attempt, want [10 0]: it must install nothing", atConflict)
			}
			if n := obs.n.Load(); n != 1 || failedAt != a {
				t.Errorf("the observer saw %d failed attempts (the last at word %d), want 1 at word %d", n, failedAt, a)
			}
			if calls != 2 || m.Peek(a) != 11 || m.Peek(b) != 11 {
				t.Errorf("executions=%d A=%d B=%d, want 2, 11, 11 (the re-execution over the new A)", calls, m.Peek(a), m.Peek(b))
			}
		})
	}
}
