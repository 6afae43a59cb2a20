package stm_test

// A dynamic transaction that wrote nothing commits when its speculation ends
// — no engine attempt, no ownership (DESIGN.md §9, "Read-only transactions
// linearize at speculation end"). Nothing validates its reads after that, so
// these tests pin what the return relies on, deterministically and on both
// engines: what the operation hands back is one state of memory even with a
// committer parked mid-commit beside it, an OrElse re-checks the branch that
// retried, the deferred actions run exactly once, and the counters say what
// happened.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
)

// parkCommitter arms m's chaos seam and returns park, which starts a commit
// adding one to words a and b on another goroutine and returns once that
// commit is parked at point — holding both words, nothing installed — and
// the commit epoch has moved (by an Add to elsewhere: before its clock step
// the parked committer has not moved it). The committer is let go 50 ms
// later: a TL2 reader waits it out, so it must go — but only well after the
// reader has got to the held word (an ST reader helps it to completion). Its
// outcome arrives on committed.
func parkCommitter(m *stm.Memory, point stm.ChaosPoint, a, b, elsewhere int) (park func() error, committed <-chan error) {
	var armed atomic.Bool
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	m.SetChaos(func(e stm.ChaosEvent) {
		if e.Point == point && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	})
	return func() error {
		armed.Store(true)
		go func() {
			addWords(m, []int{a, b}, 1, 1)
			done <- nil
		}()
		<-parked
		addWord(m, elsewhere, 1)
		time.AfterFunc(50*time.Millisecond, func() { close(release) })
		return nil
	}, done
}

func TestReadOnlyParkedCommitter(t *testing.T) {
	// Words A and B are only ever written together, A == B. A committer of
	// {A, B} is parked by the chaos seam holding both words with nothing
	// installed — before its epoch step (the post-lock points) or after it
	// (ChaosTL2PostClock) — while a read-only transaction that logged A
	// before the park reads on. Whatever the transaction returns is final:
	// there is no commit-time validation behind it any more, so it must
	// never return A's old value beside B's new one, whether B is its last
	// read (admitted on the fast path or by an extension) or an earlier one.
	type order struct {
		name  string
		reads func(tx *stm.DTx, park func()) (va, vb uint64)
	}
	const a, b, unrelated, elsewhere = 0, 1, 2, 3
	orders := []order{
		{"A-park-B", func(tx *stm.DTx, park func()) (uint64, uint64) {
			va := tx.Read(a)
			park()
			return va, tx.Read(b)
		}},
		{"A-park-unrelated-B", func(tx *stm.DTx, park func()) (uint64, uint64) {
			va := tx.Read(a)
			park()
			tx.Read(unrelated)
			return va, tx.Read(b)
		}},
		{"B-park-A", func(tx *stm.DTx, park func()) (uint64, uint64) {
			vb := tx.Read(b)
			park()
			return tx.Read(a), vb
		}},
		{"A-B-park-unrelated", func(tx *stm.DTx, park func()) (uint64, uint64) {
			va, vb := tx.Read(a), tx.Read(b)
			park()
			tx.Read(unrelated)
			return va, vb
		}},
	}
	for _, tc := range []struct {
		eng   stm.Engine
		point stm.ChaosPoint
	}{
		{stm.ST, stm.ChaosSTPostLock},
		{stm.TL2, stm.ChaosTL2PostLock},
		{stm.TL2, stm.ChaosTL2PostClock},
	} {
		for _, ord := range orders {
			t.Run(fmt.Sprintf("%v/%v/%s", tc.eng, tc.point, ord.name), func(t *testing.T) {
				m := mustNewEngine(t, 4, tc.eng)
				parkNow, committed := parkCommitter(m, tc.point, a, b, elsewhere)
				calls := 0
				park := func() {
					if calls == 1 {
						if err := parkNow(); err != nil {
							t.Error(err)
						}
					}
				}
				var va, vb uint64
				if err := m.Atomically(func(tx *stm.DTx) error {
					calls++
					va, vb = ord.reads(tx, park)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if va != vb {
					t.Errorf("read-only transaction returned A=%d beside B=%d after %d executions", va, vb, calls)
				}
				if err := <-committed; err != nil {
					t.Fatal(err)
				}
				m.SetChaos(nil)
				// The committer and the epoch-moving Add are the only engine
				// attempts there ever were.
				if s := m.Stats(); s.Attempts != 2 || s.ReadOnlyCommits != 1 {
					t.Errorf("attempts=%d read-only commits=%d, want 2 (the committer, the Add) and 1", s.Attempts, s.ReadOnlyCommits)
				}
			})
		}
	}
}

func TestReadOnlyOrElseValidatesRetriedBranch(t *testing.T) {
	// The first branch reads FLAG == 0 and retries; while the read-only
	// second branch runs, one foreign commit sets FLAG and X together, and
	// the second branch then reads X's new value. FLAG == 0 beside X == 1 is
	// a state memory never held. The second branch continues the retried
	// branch's log, FLAG among its reads, so the extension that admits X
	// re-checks FLAG and finds it stale; the operation re-executes and takes
	// the first branch.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const flag, x = 0, 1
		m := mustNewEngine(t, 4, eng)
		var took string
		var sawFlag, sawX uint64
		secondRuns := 0
		if err := m.OrElse(
			func(tx *stm.DTx) error {
				if sawFlag = tx.Read(flag); sawFlag == 0 {
					tx.Retry()
				}
				sawX = tx.Read(x)
				took = "first"
				return nil
			},
			func(tx *stm.DTx) error {
				secondRuns++
				if err := m.WriteAll([]int{flag, x}, []uint64{1, 1}); err != nil {
					return err
				}
				sawX = tx.Read(x)
				took = "second"
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		if took != "first" || sawFlag != 1 || sawX != 1 || secondRuns != 1 {
			t.Errorf("took the %s branch with FLAG=%d X=%d after %d runs of the second; want first, 1, 1, 1",
				took, sawFlag, sawX, secondRuns)
		}
		s := m.Stats()
		if s.Attempts != 1 || s.ReadOnlyCommits != 1 {
			t.Errorf("attempts=%d read-only commits=%d, want 1 (the foreign write) and 1", s.Attempts, s.ReadOnlyCommits)
		}
		if s.SnapshotStale != 1 {
			t.Errorf("stale extensions = %d, want 1 (the one admitting X)", s.SnapshotStale)
		}
	})
}

func TestReadOnlyOrElseCommitsSecondBranch(t *testing.T) {
	// Undisturbed, the read-only second branch is the commit: no engine
	// attempt, and — both branches' reads admitted under the one epoch
	// sample — no extension either.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const flag, x = 0, 1
		m := mustNewEngine(t, 4, eng)
		if err := m.WriteAll([]int{x}, []uint64{9}); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
		var got uint64
		if err := m.OrElse(
			func(tx *stm.DTx) error {
				if tx.Read(flag) == 0 {
					tx.Retry()
				}
				return nil
			},
			func(tx *stm.DTx) error { got = tx.Read(x); return nil },
		); err != nil {
			t.Fatal(err)
		}
		s := m.Stats()
		if got != 9 || s.Attempts != 0 || s.ReadOnlyCommits != 1 {
			t.Errorf("X=%d attempts=%d read-only commits=%d, want 9, 0, 1", got, s.Attempts, s.ReadOnlyCommits)
		}
		if s.SnapshotExtensions != 0 || s.SnapshotRechecked != 0 || s.SnapshotStale != 0 {
			t.Errorf("extensions=%d rechecked=%d stale=%d, want 0, 0, 0",
				s.SnapshotExtensions, s.SnapshotRechecked, s.SnapshotStale)
		}
	})
}

func TestReadOnlyCommitRunsHooksOnce(t *testing.T) {
	// The read-only return is a commit like any other to the deferred
	// actions: the committing execution's OnCommit actions run once, in
	// order, after the operation is decided; OnAbort actions and everything
	// an abandoned execution registered die unrun.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const a, b = 0, 1
		m := mustNewEngine(t, 4, eng)
		var order []int
		aborted, calls := 0, 0
		if err := m.Atomically(func(tx *stm.DTx) error {
			calls++
			n := calls
			tx.OnCommit(func() { order = append(order, 10*n+1) })
			tx.OnAbort(func() { aborted++ })
			tx.Read(a)
			if calls == 1 {
				// Stale the first execution: its registrations must go.
				addWord(m, a, 1)
			}
			tx.Read(b)
			tx.OnCommit(func() { order = append(order, 10*n+2) })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if calls != 2 || fmt.Sprint(order) != "[21 22]" || aborted != 0 {
			t.Errorf("executions=%d commit actions=%v abort actions=%d; want 2, [21 22], 0", calls, order, aborted)
		}

		// Through OrElse, with the retried branch's registrations dropped.
		var first, second int
		if err := m.OrElse(
			func(tx *stm.DTx) error {
				tx.OnCommit(func() { first++ })
				tx.OnAbort(func() { first++ })
				if tx.Read(2) == 0 {
					tx.Retry()
				}
				return nil
			},
			func(tx *stm.DTx) error {
				tx.Read(b)
				tx.OnCommit(func() { second++ })
				tx.OnAbort(func() { second += 100 })
				return nil
			},
		); err != nil {
			t.Fatal(err)
		}
		if first != 0 || second != 1 {
			t.Errorf("OrElse: retried branch ran %d actions, committed branch's count = %d; want 0 and 1", first, second)
		}
	})
}

func TestReadOnlyCommitsCounted(t *testing.T) {
	// The cost claim as a count, host-independent: a transaction that wrote
	// nothing makes no engine attempt and is counted once as a read-only
	// commit — the vacuous one included — and any write, even of the value
	// already there, takes the engine path.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const n = 1000
		m := mustNewEngine(t, 64, eng)
		readTwenty := func(tx *stm.DTx) error {
			for i := 0; i < 20; i++ {
				tx.Read(3 * i)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if err := m.Atomically(readTwenty); err != nil {
				t.Fatal(err)
			}
		}
		if s := m.Stats(); s.Attempts != 0 || s.Commits != 0 || s.ReadOnlyCommits != n {
			t.Errorf("%d read-only transactions: attempts=%d commits=%d read-only commits=%d, want 0 0 %d",
				n, s.Attempts, s.Commits, s.ReadOnlyCommits, n)
		}
		if err := m.Atomically(func(*stm.DTx) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if s := m.Stats(); s.Attempts != 0 || s.ReadOnlyCommits != n+1 {
			t.Errorf("after a vacuous transaction: attempts=%d read-only commits=%d, want 0 %d", s.Attempts, s.ReadOnlyCommits, n+1)
		}
		if err := m.Atomically(func(tx *stm.DTx) error { tx.Write(0, tx.Read(0)); return nil }); err != nil {
			t.Fatal(err)
		}
		if s := m.Stats(); s.Attempts != 1 || s.Commits != 1 || s.ReadOnlyCommits != n+1 {
			t.Errorf("after writing back the value read: attempts=%d commits=%d read-only commits=%d, want 1 1 %d",
				s.Attempts, s.Commits, s.ReadOnlyCommits, n+1)
		}
		if err := m.Atomically(func(tx *stm.DTx) error { tx.Read(0); return fmt.Errorf("no") }); err == nil {
			t.Fatal("user error swallowed")
		}
		if s := m.Stats(); s.ReadOnlyCommits != n+1 {
			t.Errorf("an aborted read-only transaction counted as a commit: %d, want %d", s.ReadOnlyCommits, n+1)
		}
		m.ResetStats()
		if s := m.Stats(); s.ReadOnlyCommits != 0 {
			t.Errorf("after ResetStats: read-only commits = %d", s.ReadOnlyCommits)
		}
	})
}

func TestReadOnlyStaticReads(t *testing.T) {
	// ReadAllInto, Var.Load and a Var.CompareAndSwap whose comparison fails
	// are read-only transactions: each is one ReadOnlyCommit and makes no
	// engine attempt. A CompareAndSwap that swaps is one engine Commit.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		m := mustNewEngine(t, 8, eng)
		v, err := stm.VarAt(m, stm.Int64(), 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := stm.VarAt[point](m, pointCodec{}, 6)
		if err != nil {
			t.Fatal(err)
		}
		p.Store(point{1, 2})
		for _, tc := range []struct {
			name                   string
			attempts, commits, ros uint64
			op                     func() bool // reports whether the op did what it should
		}{
			{"ReadAllInto", 0, 0, 1, func() bool {
				var dst [3]uint64
				return m.ReadAllInto([]int{0, 6, 7}, dst[:]) == nil && dst == [3]uint64{0, 1, 2}
			}},
			{"Var.Load", 0, 0, 1, func() bool { return p.Load() == point{1, 2} }},
			{"Var.CompareAndSwap/failed", 0, 0, 1, func() bool { return !v.CompareAndSwap(1, 2) }},
			{"Var.CompareAndSwap/failed-second-word", 0, 0, 1, func() bool {
				return !p.CompareAndSwap(point{1, 3}, point{9, 9})
			}},
			{"Var.CompareAndSwap", 1, 1, 0, func() bool { return v.CompareAndSwap(0, 2) }},
		} {
			before := m.Stats()
			if !tc.op() {
				t.Errorf("%s: wrong result", tc.name)
			}
			after := m.Stats()
			if a, c, r := after.Attempts-before.Attempts, after.Commits-before.Commits, after.ReadOnlyCommits-before.ReadOnlyCommits; a != tc.attempts || c != tc.commits || r != tc.ros {
				t.Errorf("%s: attempts +%d commits +%d read-only commits +%d, want +%d +%d +%d",
					tc.name, a, c, r, tc.attempts, tc.commits, tc.ros)
			}
		}
		if got := v.Load(); got != 2 {
			t.Errorf("after the swap: %d, want 2", got)
		}
	})
}

func TestReadOnlyReadAllIntoHelpsParkedOwner(t *testing.T) {
	// On ST a reader never waits for a stalled writer and never fails: it
	// helps the writer's record to completion and reads on (F5's
	// non-blocking claim, stated for readers). A record parked by the chaos
	// seam owns word 0; ReadAllInto over it returns the value the parked
	// record installs, while the record's own goroutine is still parked,
	// and no attempt fails.
	m := mustNewEngine(t, 8, stm.ST)
	s := stallWord(t, m, 0)
	var dst [2]uint64
	done := make(chan error, 1)
	go func() { done <- m.ReadAllInto([]int{0, 1}, dst[:]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		s.finish()
		t.Fatal("ReadAllInto blocked behind a parked owner")
	}
	st := m.Stats()
	s.finish()
	m.SetChaos(nil)
	if dst != [2]uint64{1, 0} {
		t.Errorf("read %v, want [1 0]: the parked increment, helped to completion", dst)
	}
	if st.Helps == 0 || st.ReadOnlyCommits != 1 || st.Failures != 0 {
		t.Errorf("helps=%d read-only commits=%d failures=%d, want >0, 1 and 0", st.Helps, st.ReadOnlyCommits, st.Failures)
	}
}
