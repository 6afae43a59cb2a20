package stm_test

// Tests for the one retry driver at the public API level: how many
// attempts, failures and commits each entry point makes when it meets a
// held word or a stale read, counted exactly through Stats.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
)

// staller holds a word of a Memory — owned (ST) or commit-locked (TL2) —
// with one writing transaction that the chaos seam parks at its engine's
// post-lock point until release. Whatever else attempts the word meanwhile
// fails, deterministically, on either engine.
type staller struct {
	once sync.Once
	gate chan struct{} // closed by release
	done chan struct{} // closed once the stalled transaction has committed
}

// stallWord parks one transaction that adds 1 to word addr of m and
// returns once it holds the word.
func stallWord(t *testing.T, m *stm.Memory, addr int) *staller {
	t.Helper()
	s := &staller{gate: make(chan struct{}), done: make(chan struct{})}
	parked := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	m.SetChaos(func(e stm.ChaosEvent) {
		if e.Point != stm.ChaosSTPostLock && e.Point != stm.ChaosTL2PostLock {
			return
		}
		if armed.CompareAndSwap(true, false) {
			close(parked)
			<-s.gate
		}
	})
	tx := mustPrepare(t, m, []int{addr})
	go func() {
		defer close(s.done)
		tx.RunInto(func(o, n []uint64) { n[0] = o[0] + 1 }, nil)
	}()
	<-parked
	return s
}

// release lets the stalled transaction go on. It does not block, so an
// Observer may call it.
func (s *staller) release() { s.once.Do(func() { close(s.gate) }) }

// finish releases the stalled transaction and waits until it has committed.
func (s *staller) finish() {
	s.release()
	<-s.done
}

// abortCounter is a non-blocking Observer: it counts failed attempts
// (EvAbort) and runs onAbort, if set, on the failing goroutine before the
// driver retries.
type abortCounter struct {
	n       atomic.Uint64
	onAbort func(e *stm.Event)
}

func (c *abortCounter) ObsEvent(e *stm.Event) {
	if e.Kind != stm.EvAbort {
		return
	}
	c.n.Add(1)
	if c.onAbort != nil {
		c.onAbort(e)
	}
}

// newObserved returns a Memory of size words on eng with obs registered at
// ObsCounters.
func newObserved(t *testing.T, size int, eng stm.Engine, obs stm.Observer) *stm.Memory {
	t.Helper()
	m, err := stm.New(size, stm.WithEngine(eng), stm.WithObs(stm.ObsConfig{Level: stm.ObsCounters, Observer: obs}))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// counts is the part of a Stats delta the driver decides.
type counts struct{ attempts, failures, commits uint64 }

func delta(before, after stm.StatsSnapshot) counts {
	return counts{after.Attempts - before.Attempts, after.Failures - before.Failures, after.Commits - before.Commits}
}

// checkRetried asserts the Stats delta of one operation that committed
// after failing against a word one stalled transaction held, the
// staller's attempt and commit included. On ST the operation's failed
// attempt helps the staller to completion, so the retry commits: exactly
// one failure. On TL2 the retries meet the lock until the released staller
// unlocks it, so the failures are the aborts obs counted.
func checkRetried(t *testing.T, eng stm.Engine, got counts, obs *abortCounter) {
	t.Helper()
	f := obs.n.Load()
	if eng == stm.ST && f != 1 {
		t.Errorf("the observer saw %d failed attempts, want 1", f)
	}
	if want := (counts{attempts: 2 + f, failures: f, commits: 2}); got != want {
		t.Errorf("attempts, failures, commits = %+v, want %+v", got, want)
	}
}

func TestPolicyProtocolEveryEntryPoint(t *testing.T) {
	// One driver, one retry policy: whichever entry point an operation came
	// in through, a failed attempt is retried after a backoff until the
	// operation commits — except TryInto, which makes exactly one attempt,
	// and a cancelled context, which ends the operation at the failed
	// attempt it finds cancelled. The held rows run against word 0 held by
	// a stalled transaction that the Observer releases at the operation's
	// first failure. The read-only rows stale their own speculation once: a
	// commit to word 0, which they have read, lands before their next read.
	type env struct {
		m      *stm.Memory
		tx     *stm.Tx // over words {0, 1}
		v      *stm.Var[int64]
		ctx    context.Context
		cancel context.CancelFunc
		stale  bool // the next readOnly execution goes stale
	}
	inc := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
	blindWrite := func(tx *stm.DTx) error { tx.Write(0, 7); return nil }
	// A transaction that only reads never meets the held word as a conflict
	// and never reaches the engine; what it meets is a stale snapshot.
	// ReadAllInto, Var.Load and a failed Var.CompareAndSwap are such
	// transactions, so these rows speak for them.
	readOnly := func(e *env) func(tx *stm.DTx) error {
		return func(tx *stm.DTx) error {
			tx.Read(0)
			if e.stale {
				e.stale = false
				addWord(e.m, 0, 1)
			}
			tx.Read(1)
			return nil
		}
	}
	type kind int
	const (
		commits   kind = iota // held word: retried until it commits
		oneShot               // held word: one failed attempt, no commit
		staleOnce             // read-only: one stale speculation, no attempt
	)
	cases := []struct {
		name string
		kind kind
		run  func(e *env) error
	}{
		{"WriteAll", commits, func(e *env) error {
			return e.m.WriteAll([]int{0, 1}, []uint64{5, 5})
		}},
		{"Tx.RunInto", commits, func(e *env) error { e.tx.RunInto(inc, nil); return nil }},
		{"Tx.TryInto", oneShot, func(e *env) error {
			if e.tx.TryInto(inc, nil) {
				t.Error("TryInto committed against a held word")
			}
			return nil
		}},
		{"Var.Update", commits, func(e *env) error {
			e.v.Update(func(x int64) int64 { return x + 1 })
			return nil
		}},
		{"Var.Store", commits, func(e *env) error { e.v.Store(42); return nil }},
		{"Atomically", commits, func(e *env) error { return e.m.Atomically(blindWrite) }},
		{"OrElse", commits, func(e *env) error {
			return e.m.OrElse(func(tx *stm.DTx) error { tx.Retry(); return nil }, blindWrite)
		}},
		{"AtomicallyContext/cancelled", oneShot, func(e *env) error {
			// Cancelled after the speculation and before the commit's first
			// attempt, which is still made.
			err := e.m.AtomicallyContext(e.ctx, func(tx *stm.DTx) error {
				e.cancel()
				return blindWrite(tx)
			})
			if err != context.Canceled {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"Atomically/read-only", staleOnce, func(e *env) error {
			return e.m.Atomically(readOnly(e))
		}},
		{"OrElse/read-only", staleOnce, func(e *env) error {
			return e.m.OrElse(func(tx *stm.DTx) error { tx.Retry(); return nil }, readOnly(e))
		}},
	}
	for _, eng := range stm.Engines() {
		for _, tc := range cases {
			t.Run(eng.String()+"/"+tc.name, func(t *testing.T) {
				obs := &abortCounter{}
				m := newObserved(t, 8, eng, obs)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e := &env{m: m, tx: mustPrepare(t, m, []int{0, 1}), ctx: ctx, cancel: cancel}
				var err error
				if e.v, err = stm.VarAt(m, stm.Int64(), 0); err != nil {
					t.Fatal(err)
				}
				before := m.Stats()
				var s *staller
				if tc.kind == staleOnce {
					e.stale = true
				} else {
					s = stallWord(t, m, 0)
					obs.onAbort = func(ev *stm.Event) {
						if ev.Addr != 0 {
							t.Errorf("an attempt failed at word %d, want 0", ev.Addr)
						}
						s.release()
					}
				}
				if err := tc.run(e); err != nil {
					t.Fatal(err)
				}
				if s != nil {
					s.finish()
					m.SetChaos(nil)
				}
				after := m.Stats()
				got := delta(before, after)
				switch tc.kind {
				case commits:
					checkRetried(t, eng, got, obs)
				case oneShot:
					// The staller's attempt and commit, and the operation's
					// one failed attempt.
					if want := (counts{attempts: 2, failures: 1, commits: 1}); got != want {
						t.Errorf("attempts, failures, commits = %+v, want %+v", got, want)
					}
				case staleOnce:
					// The foreign commit is the one attempt; the operation
					// makes none.
					if want := (counts{attempts: 1, failures: 0, commits: 1}); got != want {
						t.Errorf("attempts, failures, commits = %+v, want %+v", got, want)
					}
					if st, ro := after.SnapshotStale-before.SnapshotStale, after.ReadOnlyCommits-before.ReadOnlyCommits; st != 1 || ro != 1 {
						t.Errorf("stale speculations %d, read-only commits %d, want 1 and 1", st, ro)
					}
				}
				if n := m.ConflictCount(0); n != got.failures {
					t.Errorf("word 0 counted %d conflicts, want the %d failures", n, got.failures)
				}
			})
		}
	}
}

func TestPolicyDynamicCommitReport(t *testing.T) {
	// A dynamic commit's data set is the words it writes; its reads are
	// validated beside it. A conflict at a held written word fails at that
	// word and re-attempts the same write set without speculating again; a
	// read found stale at commit fails once, at the read word, and sends
	// the operation back to speculate.
	const first = 4
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			obs := &abortCounter{}
			m := newObserved(t, 8, eng, obs)
			calls, stales := 0, 0
			f := func(tx *stm.DTx) error {
				calls++
				sum := tx.Read(1) + tx.Read(2)
				tx.Write(6, sum)
				tx.Write(first, sum+1)
				if stales > 0 {
					// A commit to a word already read, after the last read:
					// only the commit's validation can see it.
					stales--
					addWord(m, 1, 1)
				}
				return nil
			}
			failsAt := func(addr int) func(*stm.Event) {
				return func(e *stm.Event) {
					if e.Addr != addr {
						t.Errorf("an attempt failed at word %d, want %d", e.Addr, addr)
					}
				}
			}

			// A held written word: the same write set re-attempted, one
			// speculation.
			before := m.Stats()
			s := stallWord(t, m, first)
			obs.onAbort = func(e *stm.Event) {
				failsAt(first)(e)
				s.release()
			}
			if err := m.Atomically(f); err != nil {
				t.Fatal(err)
			}
			s.finish()
			m.SetChaos(nil)
			checkRetried(t, eng, delta(before, m.Stats()), obs)
			if calls != 1 {
				t.Errorf("held write: %d speculations, want 1", calls)
			}

			// Two stale reads: two failed attempts, three speculations, and
			// the two foreign commits.
			calls, stales = 0, 2
			obs.onAbort = failsAt(1)
			before = m.Stats()
			if err := m.Atomically(f); err != nil {
				t.Fatal(err)
			}
			after := m.Stats()
			if got, want := delta(before, after), (counts{attempts: 5, failures: 2, commits: 3}); got != want || calls != 3 {
				t.Errorf("stale read: attempts, failures, commits = %+v over %d speculations, want %+v over 3", got, calls, want)
			}
			validate := after.STValidateAborts - before.STValidateAborts
			if eng == stm.TL2 {
				validate = after.TL2ValidateAborts - before.TL2ValidateAborts
			}
			if validate != 2 {
				t.Errorf("stale read: %d validation aborts, want 2", validate)
			}
			if m.Peek(first) != m.Peek(1)+m.Peek(2)+1 {
				t.Errorf("word %d = %d, want the sum of the final reads plus one", first, m.Peek(first))
			}
		})
	}
}

func TestUncontendedOperationsNeverFail(t *testing.T) {
	// An operation that meets no conflict makes exactly the attempts it
	// commits: one for a static commit, a TryInto or a dynamic transaction
	// that wrote, none for one that only read or did nothing.
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 8, eng)
		tx := mustPrepare(t, m, []int{3})
		for _, tc := range []struct {
			name     string
			attempts uint64 // and commits; the rest commit read-only
			run      func() error
		}{
			{"Add", 1, func() error { addWord(m, 3, 1); return nil }},
			{"TryInto", 1, func() error {
				if !tx.TryInto(func(o, n []uint64) { n[0] = o[0] + 1 }, nil) {
					t.Error("uncontended TryInto failed")
				}
				return nil
			}},
			{"writing Atomically", 1, func() error {
				return m.Atomically(func(tx *stm.DTx) error { tx.Write(4, tx.Read(3)); return nil })
			}},
			{"read-only Atomically", 0, func() error {
				return m.Atomically(func(tx *stm.DTx) error { tx.Read(5); tx.Read(2); return nil })
			}},
			{"vacuous Atomically", 0, func() error { return m.Atomically(func(*stm.DTx) error { return nil }) }},
		} {
			before := m.Stats()
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			after := m.Stats()
			want := counts{attempts: tc.attempts, commits: tc.attempts}
			if got, ro := delta(before, after), after.ReadOnlyCommits-before.ReadOnlyCommits; got != want || ro != 1-tc.attempts {
				t.Errorf("%s/%s: attempts, failures, commits = %+v and %d read-only commits, want %+v and %d",
					eng, tc.name, got, ro, want, 1-tc.attempts)
			}
		}
	}
}

func TestNilContextNeverCancelled(t *testing.T) {
	// Every ...Context entry point runs on the one driver, where a nil
	// context means "never cancelled": a conflict, or a Retry's wait, must
	// back off and retry exactly as the context-free form does rather than
	// dereference the nil.
	var nilCtx context.Context
	blindWrite := func(tx *stm.DTx) error { tx.Write(0, 7); return nil }
	cases := []struct {
		name string
		// guarded cases start from a Retry on an idle word 0 that a later
		// add satisfies; the others start against a held one.
		guarded bool
		run     func(t *testing.T, m *stm.Memory) error
	}{
		{"AtomicallyContext", false, func(t *testing.T, m *stm.Memory) error {
			return m.AtomicallyContext(nilCtx, blindWrite)
		}},
		{"OrElseContext", false, func(t *testing.T, m *stm.Memory) error {
			return m.OrElseContext(nilCtx, func(tx *stm.DTx) error { tx.Retry(); return nil }, blindWrite)
		}},
		{"AtomicallyContext/Retry", true, func(t *testing.T, m *stm.Memory) error {
			v, err := stm.VarAt(m, stm.Int64(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return m.AtomicallyContext(nilCtx, func(tx *stm.DTx) error {
				if stm.ReadVar(tx, v) <= 0 {
					tx.Retry()
				}
				return nil
			})
		}},
	}
	for _, eng := range stm.Engines() {
		for _, tc := range cases {
			t.Run(eng.String()+"/"+tc.name, func(t *testing.T) {
				obs := &abortCounter{}
				m := newObserved(t, 4, eng, obs)
				before := m.Stats()
				var s *staller
				if tc.guarded {
					time.AfterFunc(2*time.Millisecond, func() {
						addWord(m, 0, 1)
					})
				} else {
					s = stallWord(t, m, 0)
					obs.onAbort = func(*stm.Event) { s.release() }
				}
				if err := tc.run(t, m); err != nil {
					t.Fatalf("err = %v under a nil context", err)
				}
				if s != nil {
					s.finish()
					m.SetChaos(nil)
					checkRetried(t, eng, delta(before, m.Stats()), obs)
				}
			})
		}
	}
}
