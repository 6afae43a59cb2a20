package stm_test

// Tests for the contention-management seam at the public API level:
// option wiring, the hook protocol of every entry point, and stats
// windowing.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/contention"
)

// recordingPolicy captures every hook invocation.
type recordingPolicy struct {
	mu        sync.Mutex
	conflicts []contention.Conflict
	commits   []contention.Conflict
	aborts    []contention.Conflict
}

func (p *recordingPolicy) OnConflict(c *contention.Conflict) {
	p.mu.Lock()
	p.conflicts = append(p.conflicts, *c)
	p.mu.Unlock()
}

func (p *recordingPolicy) OnCommit(c *contention.Conflict) {
	p.mu.Lock()
	p.commits = append(p.commits, *c)
	p.mu.Unlock()
}

func (p *recordingPolicy) OnAbort(c *contention.Conflict) {
	p.mu.Lock()
	p.aborts = append(p.aborts, *c)
	p.mu.Unlock()
}

func (p *recordingPolicy) counts() (conflicts, commits, aborts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conflicts), len(p.commits), len(p.aborts)
}

func TestWithPolicyCleanCommitReports(t *testing.T) {
	rec := &recordingPolicy{}
	m, err := stm.New(8, stm.WithPolicy(rec))
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy() != contention.Policy(rec) {
		t.Fatal("Policy() does not return the configured policy")
	}
	// An operation that never conflicted never reaches the policy: not a
	// static commit, not a TryInto, and not a dynamic transaction that
	// wrote, only read, or did nothing.
	tx := mustPrepare(t, m, []int{3})
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Add", func() error { addWord(m, 3, 1); return nil }},
		{"TryInto", func() error {
			if !tx.TryInto(func(o, n []uint64) { n[0] = o[0] + 1 }, nil) {
				t.Error("uncontended TryInto failed")
			}
			return nil
		}},
		{"writing Atomically", func() error {
			return m.Atomically(func(tx *stm.DTx) error { tx.Write(4, tx.Read(3)); return nil })
		}},
		{"read-only Atomically", func() error {
			return m.Atomically(func(tx *stm.DTx) error { tx.Read(5); tx.Read(2); return nil })
		}},
		{"vacuous Atomically", func() error { return m.Atomically(func(*stm.DTx) error { return nil }) }},
	} {
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		if nc, ncm, na := rec.counts(); nc != 0 || ncm != 0 || na != 0 {
			t.Fatalf("hooks after an uncontended %s = %d conflicts / %d commits / %d aborts, want 0/0/0", tc.name, nc, ncm, na)
		}
	}
}

func TestPolicySeesConflicts(t *testing.T) {
	// Deterministic conflict: transaction A parks inside its update
	// function while owning word 0; B's Add then fails against it (and
	// helps). Helpers evaluate A's function too, so everyone blocks until
	// release closes — after which A (or its helper) completes and B
	// retries to success.
	rec := &recordingPolicy{}
	m, err := stm.New(4, stm.WithPolicy(rec))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := m.Prepare([]int{0})
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var done sync.WaitGroup
	done.Add(2)
	go func() {
		defer done.Done()
		tx.RunInto(func(o, n []uint64) {
			once.Do(func() { close(entered) })
			<-release
			n[0] = o[0] + 100
		}, nil)
	}()
	<-entered
	go func() {
		defer done.Done()
		time.Sleep(5 * time.Millisecond) // let B collide with parked A
		close(release)
	}()
	addWord(m, 0, 1)
	done.Wait()

	if got := m.Peek(0); got != 101 {
		t.Errorf("word 0 = %d, want 101", got)
	}
	nc, _, _ := rec.counts()
	if nc == 0 {
		t.Error("policy saw no OnConflict despite a forced collision")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, c := range rec.conflicts {
		if c.Addr != 0 {
			t.Errorf("conflict reported at addr %d, want 0", c.Addr)
		}
		if c.Attempts < 1 {
			t.Errorf("conflict report with Attempts=%d, want >= 1", c.Attempts)
		}
	}
	if m.ConflictCount(0) == 0 {
		t.Error("per-word conflict counter not bumped by the forced collision")
	}
}

func TestDefaultPolicyWhenUnconfigured(t *testing.T) {
	m := mustNew(t, 4)
	if _, ok := m.Policy().(*contention.ExpBackoff); !ok {
		t.Errorf("default policy = %T, want *contention.ExpBackoff", m.Policy())
	}
	if m2, err := stm.New(4, stm.WithPolicy(nil)); err != nil {
		t.Fatal(err)
	} else if _, ok := m2.Policy().(*contention.ExpBackoff); !ok {
		t.Errorf("WithPolicy(nil) policy = %T, want *contention.ExpBackoff", m2.Policy())
	}
}

func TestMemoryResetStatsWindows(t *testing.T) {
	m := mustNew(t, 8)
	for i := 0; i < 10; i++ {
		addWord(m, 1, 1)
	}
	if st := m.Stats(); st.Attempts < 10 || st.Commits < 10 {
		t.Fatalf("pre-reset stats = %+v, want >= 10 attempts/commits", st)
	}
	m.ResetStats()
	if st := m.Stats(); st.Attempts != 0 || st.Commits != 0 || st.Failures != 0 {
		t.Errorf("post-reset stats = %+v, want zero", st)
	}
	for i := 0; i < 3; i++ {
		addWord(m, 1, 1)
	}
	if st := m.Stats(); st.Attempts != 3 || st.Commits != 3 {
		t.Errorf("windowed stats = %+v, want exactly 3 attempts / 3 commits", st)
	}
}

// serializingPolicy serializes every operation that reaches it: each hook
// blocks until gate is closed.
type serializingPolicy struct{ gate chan struct{} }

func (p serializingPolicy) OnConflict(*contention.Conflict) { <-p.gate }
func (p serializingPolicy) OnCommit(*contention.Conflict)   { <-p.gate }
func (p serializingPolicy) OnAbort(*contention.Conflict)    { <-p.gate }

func TestTryIntoUnderSerializingPolicy(t *testing.T) {
	// TryInto must stay a bounded single attempt under a serializing
	// policy — no wait on the success path and correct snapshots. The gate
	// opens after two seconds, so a TryInto that waits on the policy fails
	// the elapsed check below instead of hanging the test.
	p := serializingPolicy{gate: make(chan struct{})}
	defer time.AfterFunc(2*time.Second, func() { close(p.gate) }).Stop()
	m, err := stm.New(4, stm.WithPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAll([]int{0, 1}, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	tx, err := m.Prepare([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var old [2]uint64
	start := time.Now()
	if !tx.TryInto(func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }, old[:]) {
		t.Fatal("uncontended TryInto failed under serializing policy")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("uncontended TryInto took %v under serializing policy", elapsed)
	}
	if old[0] != 10 || old[1] != 20 {
		t.Errorf("snapshot = %v, want [10 20]", old)
	}
	if m.Peek(0) != 11 || m.Peek(1) != 21 {
		t.Errorf("words = [%d %d], want [11 21]", m.Peek(0), m.Peek(1))
	}
}

// staller holds word 0 of a Memory — owned (ST) or commit-locked (TL2) —
// through a chain of writing transactions, each parked by the chaos seam at
// its engine's post-lock point until next releases it. Whatever else
// attempts word 0 meanwhile fails, deterministically, on either engine.
type staller struct {
	armed   atomic.Bool
	parked  chan struct{} // one token per parked transaction
	release chan struct{} // one token per release
	done    chan struct{} // closed when the chain has run out
}

// stallWord starts a chain of rounds stalled transactions on word addr of
// m and returns once the first is parked.
func stallWord(t *testing.T, m *stm.Memory, addr, rounds int) *staller {
	t.Helper()
	s := &staller{
		parked:  make(chan struct{}),
		release: make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.SetChaos(func(e stm.ChaosEvent) {
		if e.Point != stm.ChaosSTPostLock && e.Point != stm.ChaosTL2PostLock {
			return
		}
		if s.armed.CompareAndSwap(true, false) {
			s.parked <- struct{}{}
			<-s.release
		}
	})
	tx := mustPrepare(t, m, []int{addr})
	go func() {
		defer close(s.done)
		for i := 0; i < rounds; i++ {
			s.armed.Store(true)
			tx.RunInto(func(o, n []uint64) { n[0] = o[0] + 1 }, nil)
		}
	}()
	<-s.parked
	return s
}

// next releases the parked transaction and returns once its successor is
// parked — or, after the last round, once the chain has finished.
func (s *staller) next() {
	s.release <- struct{}{}
	select {
	case <-s.parked:
	case <-s.done:
	}
}

// finish runs the chain out.
func (s *staller) finish() {
	for {
		select {
		case <-s.done:
			return
		default:
			s.next()
		}
	}
}

// hookCall is one policy hook invocation: which hook, the report as it was
// then, and the report's identity.
type hookCall struct {
	hook string
	c    contention.Conflict
	p    *contention.Conflict
}

// protocolPolicy records the hook sequence and runs onConflict, if set,
// (outside its lock) with the number of conflicts seen so far. The
// staller's own uncontended commits never reach a policy, so every recorded
// call belongs to the operation under test.
type protocolPolicy struct {
	mu         sync.Mutex
	calls      []hookCall
	onConflict func(n int)
}

func (p *protocolPolicy) record(hook string, c *contention.Conflict) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, hookCall{hook, *c, c})
	return len(p.calls)
}

func (p *protocolPolicy) OnConflict(c *contention.Conflict) {
	if n := p.record("conflict", c); p.onConflict != nil {
		p.onConflict(n)
	}
}
func (p *protocolPolicy) OnCommit(c *contention.Conflict) { p.record("commit", c) }
func (p *protocolPolicy) OnAbort(c *contention.Conflict)  { p.record("abort", c) }

func TestPolicyProtocolEveryEntryPoint(t *testing.T) {
	// One driver, one protocol: whichever entry point an operation came in
	// through, a policy sees OnConflict once per deferred failure with
	// Attempts counting 1..n and Addr naming the held word, then exactly
	// one OnCommit or OnAbort, then nothing — and the report goes back to
	// the pool.
	type env struct {
		m   *stm.Memory
		tx  *stm.Tx // over words {0, 1}
		v   *stm.Var[int64]
		ctx context.Context
		// stales is how many more executions of readOnly go stale.
		stales int
	}
	inc := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
	blindWrite := func(tx *stm.DTx) error { tx.Write(0, 7); return nil }
	// A transaction that only reads never meets the held word as a conflict
	// (it helps or waits the holder out) and never reaches the engine; what
	// it reports is a stale snapshot. ReadAllInto, Var.Load and a failed
	// Var.CompareAndSwap are such transactions, so these rows speak for
	// them. This one stales itself: a commit to word 0, which it has read,
	// lands before its next read.
	readOnly := func(e *env) func(tx *stm.DTx) error {
		return func(tx *stm.DTx) error {
			tx.Read(0)
			if e.stales > 0 {
				e.stales--
				addWord(e.m, 0, 1)
			}
			tx.Read(1)
			return nil
		}
	}
	cases := []struct {
		name      string
		conflicts int    // deferred failures before the operation ends
		end       string // the closing hook
		cancel    bool   // cancel env.ctx at the last conflict
		stale     bool   // the failures are stale reads, not a held word
		run       func(e *env) error
	}{
		{"WriteAll", 2, "commit", false, false, func(e *env) error {
			return e.m.WriteAll([]int{0, 1}, []uint64{5, 5})
		}},
		{"Tx.RunInto", 2, "commit", false, false, func(e *env) error { e.tx.RunInto(inc, nil); return nil }},
		{"Tx.TryInto", 0, "abort", false, false, func(e *env) error {
			if e.tx.TryInto(inc, nil) {
				t.Error("TryInto committed against a held word")
			}
			return nil
		}},
		{"Var.Update", 2, "commit", false, false, func(e *env) error {
			e.v.Update(func(x int64) int64 { return x + 1 })
			return nil
		}},
		{"Var.Store", 2, "commit", false, false, func(e *env) error { e.v.Store(42); return nil }},
		{"Atomically", 2, "commit", false, false, func(e *env) error { return e.m.Atomically(blindWrite) }},
		{"OrElse", 2, "commit", false, false, func(e *env) error {
			return e.m.OrElse(func(tx *stm.DTx) error { tx.Retry(); return nil }, blindWrite)
		}},
		{"AtomicallyContext/cancelled", 2, "abort", true, false, func(e *env) error {
			if err := e.m.AtomicallyContext(e.ctx, blindWrite); err != context.Canceled {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"Atomically/read-only", 2, "commit", false, true, func(e *env) error {
			return e.m.Atomically(readOnly(e))
		}},
		{"OrElse/read-only", 2, "commit", false, true, func(e *env) error {
			return e.m.OrElse(func(tx *stm.DTx) error { tx.Retry(); return nil }, readOnly(e))
		}},
	}
	for _, eng := range stm.Engines() {
		for _, tc := range cases {
			t.Run(eng.String()+"/"+tc.name, func(t *testing.T) {
				pol := &protocolPolicy{}
				m, err := stm.New(8, stm.WithEngine(eng), stm.WithPolicy(pol))
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e := &env{m: m, tx: mustPrepare(t, m, []int{0, 1}), ctx: ctx}
				if e.v, err = stm.VarAt(m, stm.Int64(), 0); err != nil {
					t.Fatal(err)
				}

				// Every attempt fails while a stalled transaction holds
				// word 0; each OnConflict swaps in the next one, so the
				// operation is deferred exactly tc.conflicts times. An
				// operation that ends aborted makes one more failed attempt
				// than it has deferrals, and needs one more holder. A
				// read-only operation brings its own failures (e.stales).
				rounds := tc.conflicts
				if tc.end == "abort" {
					rounds++
				}
				e.stales = rounds
				next, finish := func() {}, func() {}
				if !tc.stale {
					s := stallWord(t, m, 0, rounds)
					next, finish = s.next, s.finish
				}
				pol.onConflict = func(n int) {
					if tc.cancel && n == tc.conflicts {
						cancel()
					}
					next()
				}
				if err := tc.run(e); err != nil {
					t.Fatal(err)
				}
				finish()
				m.SetChaos(nil)

				pol.mu.Lock()
				defer pol.mu.Unlock()
				if len(pol.calls) != tc.conflicts+1 {
					t.Fatalf("policy saw %d hook calls, want %d conflicts + 1 %s: %+v",
						len(pol.calls), tc.conflicts, tc.end, pol.calls)
				}
				for i, call := range pol.calls {
					wantHook, wantAttempts := "conflict", i+1
					if i == tc.conflicts {
						wantHook = tc.end
						if tc.end == "commit" {
							wantAttempts = tc.conflicts // the commit itself is no failure
						}
					}
					if call.hook != wantHook || call.c.Attempts != wantAttempts {
						t.Errorf("call %d = %s with Attempts=%d, want %s with Attempts=%d",
							i, call.hook, call.c.Attempts, wantHook, wantAttempts)
					}
					if call.c.Addr != 0 {
						t.Errorf("call %d report = %+v, want Addr=0", i, call.c)
					}
					if call.p != pol.calls[0].p {
						t.Errorf("call %d arrived on a different report than call 0", i)
					}
				}
				if *pol.calls[0].p != (contention.Conflict{}) {
					t.Errorf("report not recycled after the operation: %+v", *pol.calls[0].p)
				}
			})
		}
	}
}

func TestPolicyDynamicCommitReport(t *testing.T) {
	// A dynamic commit's data set is the words it writes; its reads are
	// validated beside it. A conflict at a held written word is reported
	// once, at that word, and re-attempted; a read found stale at commit is
	// reported once, at the read word, and sends the operation back to
	// speculate, so the policy hears it exactly once per re-speculation.
	const first = 4
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			pol := &protocolPolicy{}
			m, err := stm.New(8, stm.WithEngine(eng), stm.WithPolicy(pol))
			if err != nil {
				t.Fatal(err)
			}
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
			check := func(name string, conflicts, specs, addr int) {
				t.Helper()
				pol.mu.Lock()
				defer pol.mu.Unlock()
				if len(pol.calls) != conflicts+1 || calls != specs {
					t.Fatalf("%s: %d hook calls over %d speculations, want %d conflicts + 1 commit over %d: %+v",
						name, len(pol.calls), calls, conflicts, specs, pol.calls)
				}
				for i, call := range pol.calls {
					wantHook, wantAddr := "conflict", addr
					if i == conflicts {
						wantHook = "commit"
					}
					if call.hook != wantHook || call.c.Addr != wantAddr {
						t.Errorf("%s: call %d = %s %+v, want %s with Addr=%d",
							name, i, call.hook, call.c, wantHook, wantAddr)
					}
				}
				pol.calls, calls = nil, 0
			}

			// A held written word: one conflict, the same write set
			// re-attempted, one speculation.
			s := stallWord(t, m, first, 1)
			pol.onConflict = func(int) { s.next() }
			if err := m.Atomically(f); err != nil {
				t.Fatal(err)
			}
			s.finish()
			m.SetChaos(nil)
			pol.onConflict = nil
			check("held write", 1, 1, first)

			// Two stale reads: two conflicts, three speculations.
			stales = 2
			if err := m.Atomically(f); err != nil {
				t.Fatal(err)
			}
			check("stale read", 2, 3, 1)
			if m.Peek(first) != m.Peek(1)+m.Peek(2)+1 {
				t.Errorf("word %d = %d, want the sum of the final reads plus one", first, m.Peek(first))
			}
		})
	}
}
