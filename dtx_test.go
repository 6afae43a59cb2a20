package stm_test

// Tests for the dynamic transaction layer (Atomically / OrElse / Retry):
// basic read/write semantics, opacity of the speculative snapshot,
// footprint-growth re-execution, blocking composition, contention-policy
// integration, and — under the race detector — a linked-list transfer
// workload whose conservation property any torn read, lost wakeup, or
// stale helper would violate.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/simrand"
	"github.com/stm-go/stm/internal/xrand"
)

func TestAtomicallyBasics(t *testing.T) {
	m := mustNew(t, 8)

	// Blind write, then read-modify-write.
	if err := m.Atomically(func(tx *stm.DTx) error {
		tx.Write(3, 40)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(3); got != 40 {
		t.Fatalf("Peek(3) = %d, want 40", got)
	}
	if err := m.Atomically(func(tx *stm.DTx) error {
		v := tx.Read(3)
		tx.Write(3, v+2)
		// Read-your-writes and repeatable reads.
		if got := tx.Read(3); got != v+2 {
			return fmt.Errorf("read-your-writes: got %d, want %d", got, v+2)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(3); got != 42 {
		t.Fatalf("Peek(3) = %d, want 42", got)
	}

	// An empty transaction commits vacuously.
	if err := m.Atomically(func(tx *stm.DTx) error { return nil }); err != nil {
		t.Fatal(err)
	}

	// A returned error aborts: no buffered write reaches memory.
	sentinel := errors.New("business rule says no")
	if err := m.Atomically(func(tx *stm.DTx) error {
		tx.Write(3, 999)
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the user's sentinel", err)
	}
	if got := m.Peek(3); got != 42 {
		t.Fatalf("aborted write leaked: Peek(3) = %d, want 42", got)
	}

	// Out-of-range access aborts with ErrAddrRange.
	if err := m.Atomically(func(tx *stm.DTx) error {
		tx.Read(99)
		return nil
	}); !errors.Is(err, stm.ErrAddrRange) {
		t.Fatalf("err = %v, want ErrAddrRange", err)
	}
	if err := m.Atomically(nil); !errors.Is(err, stm.ErrNilUpdate) {
		t.Fatalf("Atomically(nil) = %v, want ErrNilUpdate", err)
	}
}

func TestAtomicallyTypedVars(t *testing.T) {
	m := mustNew(t, 16)
	checking, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	savings, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	checking.Store(900)
	if err := m.Atomically(func(tx *stm.DTx) error {
		c := stm.ReadVar(tx, checking)
		s := stm.ReadVar(tx, savings)
		stm.WriteVar(tx, checking, c-250)
		stm.WriteVar(tx, savings, s+250)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := checking.Load(); got != 650 {
		t.Errorf("checking = %d, want 650", got)
	}
	if got := savings.Load(); got != 250 {
		t.Errorf("savings = %d, want 250", got)
	}

	// A var of a different Memory is rejected.
	other := mustNew(t, 16)
	foreign, err := stm.Alloc(other, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Atomically(func(tx *stm.DTx) error {
		stm.ReadVar(tx, foreign)
		return nil
	}); !errors.Is(err, stm.ErrMemoryMismatch) {
		t.Fatalf("foreign var err = %v, want ErrMemoryMismatch", err)
	}
}

func TestDTxEscapePanics(t *testing.T) {
	m := mustNew(t, 4)
	var escaped *stm.DTx
	if err := m.Atomically(func(tx *stm.DTx) error {
		escaped = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("using a DTx outside its transaction function should panic")
		}
	}()
	escaped.Read(0)
}

func TestUserPanicPropagates(t *testing.T) {
	m := mustNew(t, 4)
	defer func() {
		if r := recover(); r != "user panic" {
			t.Errorf("recovered %v, want the user's panic value", r)
		}
	}()
	_ = m.Atomically(func(tx *stm.DTx) error {
		panic("user panic")
	})
}

func TestFootprintGrowthReexecution(t *testing.T) {
	// The selector word decides the footprint: 0 -> {sel, A}; 1 -> {sel,
	// A, B}. The first execution reads under sel=0, then a "concurrent"
	// writer (a static op issued mid-speculation — legal, speculation
	// holds no ownership) flips the selector after all reads, so the
	// commit-time validation fails, the speculation re-executes, and the
	// second execution discovers the grown footprint and commits it.
	const sel, a, b = 0, 1, 2
	m := mustNew(t, 4)
	calls := 0
	err := m.Atomically(func(tx *stm.DTx) error {
		calls++
		myCall := calls
		s := tx.Read(sel)
		va := tx.Read(a)
		if s == 0 {
			if myCall == 1 {
				swapWord(m, sel, 1)
			}
			tx.Write(a, va+10)
			return nil
		}
		vb := tx.Read(b)
		tx.Write(a, va+100)
		tx.Write(b, vb+100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("transaction executed %d times, want 2 (validation failure re-executes)", calls)
	}
	if got := m.Peek(a); got != 100 {
		t.Errorf("word A = %d, want 100 (only the second execution's write lands)", got)
	}
	if got := m.Peek(b); got != 100 {
		t.Errorf("word B = %d, want 100", got)
	}
}

func TestSpeculativeStaleReadRestarts(t *testing.T) {
	// Here the conflicting write lands between two speculative reads, so
	// the incremental revalidation (not the commit) must catch it: the
	// second tx.Read observes the selector's box moved and restarts. The
	// user function must never see sel's old value next to A's new one.
	const sel, a = 0, 1
	m := mustNew(t, 4)
	calls := 0
	err := m.Atomically(func(tx *stm.DTx) error {
		calls++
		s := tx.Read(sel)
		if calls == 1 {
			// Change both words atomically behind the speculation's back.
			addWords(m, []int{sel, a}, 1, 50)
		}
		va := tx.Read(a)
		if s == 0 && va != 0 {
			return fmt.Errorf("opacity violated: sel=0 but A=%d", va)
		}
		tx.Write(a, va+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("transaction executed %d times, want 2 (stale read restarts)", calls)
	}
	if got := m.Peek(a); got != 51 {
		t.Errorf("word A = %d, want 51", got)
	}
}

func TestDynamicOpacityUnderConcurrentWriters(t *testing.T) {
	// A writer keeps words 0 and 1 equal (one static transaction updates
	// both). Dynamic readers assert the equality inside the transaction
	// function: any run that observed a torn pair would return an error.
	m := mustNew(t, 4)
	tx2 := mustPrepare(t, m, []int{0, 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var old [2]uint64
		bump := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
		for {
			select {
			case <-stop:
				return
			default:
				tx2.RunInto(bump, old[:])
			}
		}
	}()
	for i := 0; i < 2_000; i++ {
		if err := m.Atomically(func(tx *stm.DTx) error {
			x := tx.Read(0)
			y := tx.Read(1)
			if x != y {
				return fmt.Errorf("torn snapshot: %d != %d", x, y)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRetryWakesOnWrite(t *testing.T) {
	m := mustNew(t, 4)
	done := make(chan error, 1)
	go func() {
		done <- m.Atomically(func(tx *stm.DTx) error {
			v := tx.Read(0)
			if v == 0 {
				tx.Retry()
			}
			tx.Write(1, v)
			return nil
		})
	}()
	select {
	case err := <-done:
		t.Fatalf("transaction committed before the flag was set (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	swapWord(m, 0, 7)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry never woke after the flag was written")
	}
	if got := m.Peek(1); got != 7 {
		t.Errorf("word 1 = %d, want 7", got)
	}
}

func TestRetryWithoutReadsFails(t *testing.T) {
	m := mustNew(t, 4)
	if err := m.Atomically(func(tx *stm.DTx) error {
		tx.Retry()
		return nil
	}); !errors.Is(err, stm.ErrRetryNoReads) {
		t.Fatalf("err = %v, want ErrRetryNoReads", err)
	}
	// Same through OrElse when both branches are read-free.
	blocked := func(tx *stm.DTx) error { tx.Retry(); return nil }
	if err := m.OrElse(blocked, blocked); !errors.Is(err, stm.ErrRetryNoReads) {
		t.Fatalf("OrElse err = %v, want ErrRetryNoReads", err)
	}
}

// takeSlot empties slot if it holds a value (retrying while it is empty)
// and records what it took at out.
func takeSlot(slot, out int) func(*stm.DTx) error {
	return func(tx *stm.DTx) error {
		v := tx.Read(slot)
		if v == 0 {
			tx.Retry()
		}
		tx.Write(slot, 0)
		tx.Write(out, v)
		return nil
	}
}

func TestOrElseTriesSecondBranch(t *testing.T) {
	const slotA, slotB, out = 0, 1, 2
	m := mustNew(t, 4)

	// Both available: first branch wins.
	if err := m.WriteAll([]int{slotA, slotB}, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := m.OrElse(takeSlot(slotA, out), takeSlot(slotB, out)); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(out); got != 10 {
		t.Errorf("out = %d, want 10 (first branch has priority)", got)
	}
	// First empty: second taken without blocking.
	if err := m.OrElse(takeSlot(slotA, out), takeSlot(slotB, out)); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(out); got != 20 {
		t.Errorf("out = %d, want 20 (fell through to second branch)", got)
	}
}

func TestOrElseWaitsOnBothBranches(t *testing.T) {
	const slotA, slotB, out = 0, 1, 2
	m := mustNew(t, 4)
	done := make(chan error, 1)
	go func() {
		done <- m.OrElse(takeSlot(slotA, out), takeSlot(slotB, out))
	}()
	select {
	case err := <-done:
		t.Fatalf("OrElse committed with both slots empty (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Filling the SECOND branch's slot must wake the combined wait.
	swapWord(m, slotB, 33)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OrElse never woke on the second branch's read set")
	}
	if got := m.Peek(out); got != 33 {
		t.Errorf("out = %d, want 33", got)
	}
	if got := m.Peek(slotB); got != 0 {
		t.Errorf("slot B = %d, want 0 (taken)", got)
	}
}

func TestOrElseRevalidatesFirstBranchAtCommit(t *testing.T) {
	// Left priority must hold at the linearization point: if a concurrent
	// write makes the first branch viable after it retried but before the
	// second branch commits, the second branch's commit must fail
	// validation and the whole OrElse re-execute from the first branch.
	// The conflicting write is issued from inside the second branch's
	// first execution — after the first branch has retried, before the
	// commit — which is exactly the race window.
	const flag, a, b = 0, 1, 2
	m := mustNew(t, 4)
	secondRuns := 0
	err := m.OrElse(
		func(tx *stm.DTx) error {
			if tx.Read(flag) == 0 {
				tx.Retry()
			}
			tx.Write(a, 1)
			return nil
		},
		func(tx *stm.DTx) error {
			secondRuns++
			if secondRuns == 1 {
				swapWord(m, flag, 1)
			}
			tx.Write(b, 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(a); got != 1 {
		t.Errorf("word A = %d, want 1 (first branch viable at commit must win)", got)
	}
	if got := m.Peek(b); got != 0 {
		t.Errorf("word B = %d, want 0 (second branch's commit must have been invalidated)", got)
	}
	if secondRuns != 1 {
		t.Errorf("second branch ran %d times, want 1", secondRuns)
	}
}

func TestAtomicallyContextCancel(t *testing.T) {
	m := mustNew(t, 4)

	// Cancel while parked in a Retry wait.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.AtomicallyContext(ctx, func(tx *stm.DTx) error {
			if tx.Read(0) == 0 {
				tx.Retry()
			}
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Retry wait never returned")
	}

	// An already-cancelled context aborts before any attempt.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	ran := false
	if err := m.AtomicallyContext(ctx2, func(tx *stm.DTx) error {
		ran = true
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("transaction function ran under an already-cancelled context")
	}
}

func TestDynamicConflictsReportToPolicy(t *testing.T) {
	// A dynamic transaction whose validation fails must flow through the
	// contention policy exactly like a static conflict: OnConflict for the
	// failed round, OnCommit when the operation finally lands. The Swap
	// that invalidates the read never conflicts, so it never reaches the
	// policy.
	rec := &recordingPolicy{}
	m, err := stm.New(8, stm.WithPolicy(rec))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := m.Atomically(func(tx *stm.DTx) error {
		calls++
		v := tx.Read(2)
		if calls == 1 {
			swapWord(m, 2, v+1)
		}
		tx.Write(3, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if nc, ncm, na := rec.counts(); nc != 1 || ncm != 1 || na != 0 {
		t.Errorf("policy saw %d conflicts / %d commits / %d aborts, want 1/1/0 (validation failure is contention)", nc, ncm, na)
	}
	// An aborted dynamic operation (user error after a conflict) releases
	// through OnAbort.
	calls = 0
	boom := errors.New("boom")
	if err := m.Atomically(func(tx *stm.DTx) error {
		calls++
		v := tx.Read(2)
		if calls == 1 {
			swapWord(m, 2, v+1)
			tx.Write(3, v) // force a footprint so the conflict is real
			return nil
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if nc, ncm, na := rec.counts(); nc != 2 || ncm != 1 || na != 1 {
		t.Errorf("policy saw %d conflicts / %d commits / %d aborts in all, want 2/1/1", nc, ncm, na)
	}
}

func TestRetryReleasesPolicyBeforeParking(t *testing.T) {
	// A Retry park is unbounded, so the round's contention-policy
	// resources must be released before the wait. The operation below conflicts once (opening a policy
	// report), then parks; the report must be closed (an OnCommit) while
	// it is still parked, not when it finally commits.
	rec := &recordingPolicy{}
	m, err := stm.New(8, stm.WithPolicy(rec))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- m.Atomically(func(tx *stm.DTx) error {
			calls++
			v := tx.Read(1)
			if calls == 1 {
				// Invalidate our own read so the first round conflicts.
				swapWord(m, 1, v+1)
				tx.Write(2, v)
				return nil
			}
			if tx.Read(0) == 0 {
				tx.Retry()
			}
			tx.Write(2, tx.Read(0))
			return nil
		})
	}()
	// While the operation is parked: exactly one conflict (the validation
	// failure) and one commit, the park-time release of the operation's
	// report. The Swaps never conflict, so they never reach the policy.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nc, ncm, na := rec.counts()
		if nc+ncm+na >= 2 {
			if nc != 1 || ncm != 1 || na != 0 {
				t.Fatalf("parked operation: %d conflicts / %d commits / %d aborts, want 1/1/0", nc, ncm, na)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked operation still holds its policy report: %d conflicts / %d commits, want 1 / 1", nc, ncm)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("operation committed before the flag was set (err=%v)", err)
	default:
	}
	swapWord(m, 0, 9)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(2); got != 9 {
		t.Errorf("word 2 = %d, want 9", got)
	}
	// Woken, the operation commits cleanly: its report is already closed,
	// and nothing more reaches the policy.
	if nc, ncm, na := rec.counts(); nc != 1 || ncm != 1 || na != 0 {
		t.Errorf("after the wakeup: %d conflicts / %d commits / %d aborts, want 1/1/0", nc, ncm, na)
	}
}

func TestDynamicConcurrentCounter(t *testing.T) {
	// Many goroutines increment one var through the dynamic path; every
	// lost update or stale validation would break the final count.
	const workers, perWorker = 8, 400
	m := mustNew(t, 8)
	counter, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := m.Atomically(func(tx *stm.DTx) error {
					stm.WriteVar(tx, counter, stm.ReadVar(tx, counter)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := counter.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

// Linked-list layout for the conservation test: word 0 is the head (base
// address of the first node, 0 = nil); node i occupies [base, base+1] =
// [value, next-base].

func listNodeAt(tx *stm.DTx, k int) uint64 {
	pos := tx.Read(0)
	for i := 0; i < k && pos != 0; i++ {
		pos = tx.Read(int(pos) + 1)
	}
	return pos
}

func TestDynamicLinkedListConservation(t *testing.T) {
	forEachEngine(t, testDynamicLinkedListConservation)
}

func testDynamicLinkedListConservation(t *testing.T, eng stm.Engine) {
	// Transfers pointer-chase to two list positions and move value between
	// them while a rotator keeps restructuring the list (head to tail).
	// The workload is dynamic through and through — every footprint depends
	// on the structure met — and conservation of both the value sum and
	// the node count catches torn reads, lost updates, and stale commits.
	// Run with -race for the memory-model half of the argument.
	const (
		nodes     = 6
		initial   = 1_000
		workers   = 4
		transfers = 250
		rotations = 150
	)
	m := mustNewEngine(t, 2+2*nodes, eng)
	base := func(i int) int { return 1 + 2*i }
	for i := 0; i < nodes; i++ {
		next := uint64(0)
		if i+1 < nodes {
			next = uint64(base(i + 1))
		}
		if err := m.WriteAll([]int{base(i), base(i) + 1}, []uint64{initial, next}); err != nil {
			t.Fatal(err)
		}
	}
	swapWord(m, 0, uint64(base(0)))

	// Worker schedules derive from one simrand base seed, logged with
	// replay instructions (STM_SIM_SEED) if the harness fails.
	seed := simrand.SeedForTest(t)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(seed ^ (uint64(w)*0x9e3779b97f4a7c15 + 1))
			next := func(n int) int { return rng.Intn(n) }
			for i := 0; i < transfers; i++ {
				from, to := next(nodes), next(nodes)
				if err := m.Atomically(func(tx *stm.DTx) error {
					a := listNodeAt(tx, from)
					b := listNodeAt(tx, to)
					if a == 0 || b == 0 || a == b {
						return nil
					}
					va := tx.Read(int(a))
					vb := tx.Read(int(b))
					amt := va / 2
					tx.Write(int(a), va-amt)
					tx.Write(int(b), vb+amt)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rotations; i++ {
			if err := m.Atomically(func(tx *stm.DTx) error {
				first := tx.Read(0)
				if first == 0 {
					return nil
				}
				second := tx.Read(int(first) + 1)
				if second == 0 {
					return nil
				}
				tail := second
				for {
					n := tx.Read(int(tail) + 1)
					if n == 0 {
						break
					}
					tail = n
				}
				tx.Write(0, second)
				tx.Write(int(tail)+1, first)
				tx.Write(int(first)+1, 0)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Quiesced: walk the list unprotected and check both invariants.
	var sum uint64
	count := 0
	for pos := m.Peek(0); pos != 0; pos = m.Peek(int(pos) + 1) {
		sum += m.Peek(int(pos))
		count++
		if count > nodes {
			t.Fatal("list has a cycle or grew")
		}
	}
	if count != nodes {
		t.Errorf("list has %d nodes, want %d", count, nodes)
	}
	if sum != nodes*initial {
		t.Errorf("value sum = %d, want %d", sum, nodes*initial)
	}
}

// The four tests below pin the snapshot rule of DESIGN.md §9 — a read is
// admitted by one commit-epoch compare, and only a moved epoch re-checks
// the reads logged so far — deterministically, on both engines: foreign
// commits land at chosen points between a transaction's reads, issued from
// inside its own function.

func TestSnapshotStaleReadReexecutesOnce(t *testing.T) {
	// T reads A, a foreign commit of {A, B} lands completely, T reads B:
	// the epoch moved, the extension finds A stale, and the function runs
	// exactly once more. It never returns A's old value beside B's new one.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const a, b = 0, 1
		m := mustNewEngine(t, 4, eng)
		calls := 0
		var va, vb uint64
		if err := m.Atomically(func(tx *stm.DTx) error {
			calls++
			va = tx.Read(a)
			if calls == 1 {
				addWords(m, []int{a, b}, 1, 1)
			}
			vb = tx.Read(b)
			if va != vb {
				return fmt.Errorf("opacity violated: A=%d beside B=%d", va, vb)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if calls != 2 {
			t.Errorf("function executed %d times, want 2", calls)
		}
		if va != 1 || vb != 1 {
			t.Errorf("committed execution saw A=%d B=%d, want 1 1", va, vb)
		}
		if s := m.Stats(); s.SnapshotExtensions != 1 || s.SnapshotStale != 1 {
			t.Errorf("extensions=%d stale=%d, want 1 and 1 (the one extension unwound)", s.SnapshotExtensions, s.SnapshotStale)
		}
	})
}

func TestSnapshotExtendsPastUnrelatedCommit(t *testing.T) {
	// A foreign commit to a word T never touches lands between two of its
	// reads: the epoch moved, so T extends its snapshot — once, over both
	// logged reads — and carries on. No re-execution.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const a, b, other = 0, 1, 2
		m := mustNewEngine(t, 4, eng)
		calls := 0
		if err := m.Atomically(func(tx *stm.DTx) error {
			calls++
			va := tx.Read(a)
			addWord(m, other, 1)
			if vb := tx.Read(b); va != 0 || vb != 0 {
				return fmt.Errorf("A=%d B=%d, want 0 0", va, vb)
			}
			tx.Write(b, 7)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("function executed %d times, want 1 (an unrelated commit is no conflict)", calls)
		}
		if got := m.Peek(b); got != 7 {
			t.Errorf("word B = %d, want 7", got)
		}
		s := m.Stats()
		if s.SnapshotExtensions != 1 || s.SnapshotRechecked != 2 || s.SnapshotStale != 0 {
			t.Errorf("extensions=%d rechecked=%d stale=%d, want 1, 2 (A and B) and 0", s.SnapshotExtensions, s.SnapshotRechecked, s.SnapshotStale)
		}
	})
}

func TestSnapshotParkedCommitter(t *testing.T) {
	// A committer is parked by the chaos seam while it holds {A, B}, at each
	// point where a commit holds its words with nothing installed. A reader
	// that logged A before the park reads an unrelated word during it, with
	// the epoch moved, so it extends its snapshot while A's install is still
	// to come — and must find out: it may never go on to see B's new value
	// beside A's old one. This is what the extension's stable re-check is
	// for. A raw box compare passes A (its old box is still in the cell),
	// adopts the epoch the committer has already stepped (at
	// ChaosTL2PostClock), and then admits B's new value on the fast path.
	for _, tc := range []struct {
		eng   stm.Engine
		point stm.ChaosPoint
	}{
		{stm.ST, stm.ChaosSTPostLock},
		{stm.TL2, stm.ChaosTL2PostLock},
		{stm.TL2, stm.ChaosTL2PostClock},
	} {
		t.Run(fmt.Sprintf("%v/%v", tc.eng, tc.point), func(t *testing.T) {
			const a, b, unrelated, elsewhere = 0, 1, 2, 3
			m := mustNewEngine(t, 4, tc.eng)
			park, committed := parkCommitter(m, tc.point, a, b, elsewhere)
			calls := 0
			var va, vb uint64
			if err := m.Atomically(func(tx *stm.DTx) error {
				calls++
				va = tx.Read(a)
				if calls == 1 {
					if err := park(); err != nil {
						return err
					}
				}
				tx.Read(unrelated)
				vb = tx.Read(b)
				if va != vb {
					return fmt.Errorf("opacity violated: A=%d beside B=%d", va, vb)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := <-committed; err != nil {
				t.Fatal(err)
			}
			if calls != 2 || va != 1 || vb != 1 {
				t.Errorf("executions=%d, last saw A=%d B=%d; want 2 executions ending on 1 1", calls, va, vb)
			}
		})
	}
}

func TestSnapshotOrElseValidatesRetriedBranch(t *testing.T) {
	// The retried first branch's reads are not in the second branch's log,
	// so no extension the second branch makes re-checks them — the commit
	// does. A foreign write makes the first branch viable while the second
	// is running (and reading, past a moved epoch): the second's commit must
	// be invalidated and the operation re-run from the first.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const flag, a, b, x = 0, 1, 2, 3
		m := mustNewEngine(t, 4, eng)
		secondRuns := 0
		if err := m.OrElse(
			func(tx *stm.DTx) error {
				if tx.Read(flag) == 0 {
					tx.Retry()
				}
				tx.Write(a, 1)
				return nil
			},
			func(tx *stm.DTx) error {
				secondRuns++
				swapWord(m, flag, 1)
				tx.Write(b, tx.Read(x)+1)
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		if got := m.Peek(a); got != 1 {
			t.Errorf("word A = %d, want 1 (the first branch, viable at commit, wins)", got)
		}
		if got := m.Peek(b); got != 0 {
			t.Errorf("word B = %d, want 0 (the second branch's commit was invalidated)", got)
		}
		if secondRuns != 1 {
			t.Errorf("second branch ran %d times, want 1", secondRuns)
		}
	})
}

func TestSnapshotExtensionsCounted(t *testing.T) {
	// The cost claim without a timer: a transaction no commit overlaps
	// extends nothing however much it reads, and k foreign commits cost at
	// most k extensions.
	const reads, k = 8192, 5
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		m := mustNewEngine(t, reads+1, eng)
		readAll := func(foreign int) {
			t.Helper()
			if err := m.Atomically(func(tx *stm.DTx) error {
				for i := 0; i < reads; i++ {
					if foreign > 0 && i%(reads/foreign) == reads/foreign/2 {
						addWord(m, reads, 1)
					}
					tx.Read(i)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		readAll(0)
		if s := m.Stats(); s.SnapshotExtensions != 0 || s.SnapshotRechecked != 0 {
			t.Errorf("undisturbed %d-read transaction: extensions=%d rechecked=%d, want 0 0",
				reads, s.SnapshotExtensions, s.SnapshotRechecked)
		}
		readAll(k)
		s := m.Stats()
		if s.SnapshotExtensions == 0 || s.SnapshotExtensions > k {
			t.Errorf("%d foreign commits: %d extensions, want 1..%d", k, s.SnapshotExtensions, k)
		}
		if s.SnapshotRechecked == 0 || s.SnapshotRechecked > k*reads {
			t.Errorf("%d foreign commits: %d reads re-checked, want 1..%d", k, s.SnapshotRechecked, k*reads)
		}
		m.ResetStats()
		if s := m.Stats(); s.SnapshotExtensions != 0 || s.SnapshotRechecked != 0 {
			t.Errorf("after ResetStats: extensions=%d rechecked=%d", s.SnapshotExtensions, s.SnapshotRechecked)
		}
	})
}
