package stm

import (
	"context"
	"errors"
	"fmt"
)

// ErrMemoryMismatch reports a TxSet (or Atomic combinator) over variables
// that live in different Memories: a static transaction is bound to one
// word vector.
var ErrMemoryMismatch = errors.New("stm: variables belong to different Memories")

// TxView is a transaction's view of its typed data set during one update
// evaluation: old holds the consistent snapshot the update is computed
// from, new the values that will be installed, both in the order the
// variables were added to the TxSet. Slots decode and encode through it.
// A view is only valid for the duration of the call it is passed to — it
// wraps engine-owned buffers and must not be retained.
type TxView struct {
	old, new []uint64
}

// TxSet is a compiled typed transaction: a recorded set of Vars whose
// concatenated word ranges are validated, sorted, and Prepared once, so
// repeat executions ride the pooled allocation-free hot path exactly like
// a raw prepared Tx. Build one with NewTxSet + AddVar, then call Run (or
// the When/Context variants) any number of times.
//
// Unlike Tx, a TxSet is a single-goroutine handle: it owns staging buffers
// for the committed old values, so it is NOT safe for concurrent use.
// Prepare one per goroutine — compilation is cheap, and the Vars and
// Memory underneath are shared safely.
type TxSet struct {
	m     *Memory
	addrs []int // declared order: each var's words, contiguous, in AddVar order
	tx    *Tx   // compiled transaction; nil until Compile
	oldW  []uint64
	err   error // sticky build/compile error
}

// NewTxSet starts recording a typed transaction over variables of m.
func NewTxSet(m *Memory) *TxSet { return &TxSet{m: m} }

// AddVar records v as the next variable of the transaction's data set and
// returns the slot through which updates read and write it. All variables
// must belong to the TxSet's Memory, must be added before the first
// Run/Compile, and no word may appear twice (adding the same Var twice, or
// two Vars overlapping via VarAt, fails compilation with ErrDupAddr).
// Violations are reported by Compile — AddVar itself never fails, so
// declaration sites stay unconditional.
func AddVar[T any](ts *TxSet, v *Var[T]) Slot[T] {
	switch {
	case ts.err != nil:
		// Keep the first error.
	case ts.tx != nil:
		ts.err = errors.New("stm: AddVar after the TxSet was compiled")
	case v.m != ts.m:
		ts.err = fmt.Errorf("%w: var at word %d", ErrMemoryMismatch, v.Base())
	}
	off := len(ts.addrs)
	ts.addrs = append(ts.addrs, v.addrs...)
	return Slot[T]{ts: ts, off: off, n: len(v.addrs), c: v.c}
}

// Compile validates the recorded data set and prepares the underlying
// static transaction. It is idempotent; Run and its variants call it
// implicitly on first use. After a successful Compile the set is frozen.
func (ts *TxSet) Compile() error {
	if ts.err != nil {
		return ts.err
	}
	if ts.tx != nil {
		return nil
	}
	tx, err := ts.m.Prepare(ts.addrs)
	if err != nil {
		ts.err = err
		return err
	}
	ts.tx = tx
	ts.oldW = make([]uint64, len(ts.addrs))
	return nil
}

// Tx returns the compiled static transaction underneath the set (nil
// before a successful Compile): the bridge to the raw API, e.g. for
// engine-level inspection via Tx.AddrsInto.
func (ts *TxSet) Tx() *Tx { return ts.tx }

// Size returns the total number of engine words in the recorded data set.
func (ts *TxSet) Size() int { return len(ts.addrs) }

// Run executes f as one atomic transaction over the recorded variables,
// retrying under the Memory's contention policy until it commits. Slots
// the update never Sets commit unchanged. On a compiled TxSet, Run is
// allocation-free (amortized) regardless of how many words the variables
// span, as long as the slot codecs don't allocate — the typed headline
// matching the raw RunInto contract.
//
// f must be deterministic and side-effect free: under helping, several
// goroutines may evaluate it concurrently for the same transaction, so it
// must not write to captured state — read results back after Run through
// Slot.Old instead.
func (ts *TxSet) Run(f func(TxView)) error {
	return ts.RunContext(nil, f)
}

// RunContext is Run with cancellation: it retries until the transaction
// commits or ctx is done. A transaction that committed is never reported
// as cancelled. A nil ctx is never cancelled.
func (ts *TxSet) RunContext(ctx context.Context, f func(TxView)) error {
	if err := ts.Compile(); err != nil {
		return err
	}
	u := update{typed: f}
	st := ts.tx.stage(&u)
	return ts.m.run(ctx, &st, ts.oldW)
}

// RunWhen retries until a committed transaction's old values satisfy
// guard, then applies f to them; rounds whose guard fails commit the data
// set unchanged (a validated no-op) and wait for the world to change — the
// typed form of Tx.RunWhen. guard receives a read-only view (Set panics)
// and must be deterministic and side-effect free, like f.
func (ts *TxSet) RunWhen(guard func(TxView) bool, f func(TxView)) error {
	return ts.RunWhenContext(nil, guard, f)
}

// RunWhenContext is RunWhen with cancellation. A nil ctx is never
// cancelled.
func (ts *TxSet) RunWhenContext(ctx context.Context, guard func(TxView) bool, f func(TxView)) error {
	if err := ts.Compile(); err != nil {
		return err
	}
	u := update{typed: f, guard: guard}
	st := ts.tx.stage(&u)
	return ts.m.runWhen(ctx, &st, ts.oldW, func(old []uint64) bool {
		return guard(TxView{old: old})
	})
}

// Slot addresses one variable within a TxSet's data set. It is a value —
// copy it freely — created by AddVar.
type Slot[T any] struct {
	ts  *TxSet
	off int
	n   int
	c   Codec[T]
}

// Get decodes the slot's variable from the view's old values: what the
// variable held at the transaction's linearization point.
func (s Slot[T]) Get(v TxView) T {
	return s.c.Decode(v.old[s.off : s.off+s.n])
}

// Set encodes x as the slot's new value. It panics on a read-only view
// (the guard of RunWhen): guards may only Get.
func (s Slot[T]) Set(v TxView, x T) {
	if v.new == nil {
		panic("stm: Slot.Set on a read-only TxView (guards may only Get)")
	}
	s.c.Encode(x, v.new[s.off:s.off+s.n])
}

// Old decodes the slot's variable from its TxSet's last committed old
// values: the post-Run way to read what a transaction saw without
// smuggling state out of the update function (which must stay pure). Like
// every TxSet read-write, it is single-goroutine: call it between Runs,
// not concurrently with one.
func (s Slot[T]) Old() T {
	return s.c.Decode(s.ts.oldW[s.off : s.off+s.n])
}

// atomicRun is the shared engine of the one-shot Atomic combinators: build
// records the vars on a fresh TxSet and returns the update to run over the
// compiled set. Each combinator contributes only its typed Get/Set
// plumbing.
func atomicRun(m *Memory, build func(ts *TxSet) func(TxView)) error {
	ts := NewTxSet(m)
	return ts.Run(build(ts))
}

// AtomicN atomically applies f to any number of same-typed variables,
// removing the combinator cliff after Atomic3. f receives the old values
// index-aligned with vars and returns the new ones — it may mutate its
// argument in place and return it, but like every update it must be
// deterministic and side-effect free, and it must return exactly len(vars)
// values. All vars must share a Memory and must not overlap.
//
// One-shot convenience: AtomicN builds and compiles the transaction (and
// the value slice, per evaluation) on every call. Hot paths should record
// a TxSet once; variables of mixed types beyond three go through a TxSet
// too — or through the dynamic Atomically when the set isn't known up
// front.
func AtomicN[T any](f func(old []T) []T, vars ...*Var[T]) error {
	if len(vars) == 0 {
		return ErrEmptyDataSet
	}
	return atomicRun(vars[0].m, func(ts *TxSet) func(TxView) {
		slots := make([]Slot[T], len(vars))
		for i, v := range vars {
			slots[i] = AddVar(ts, v)
		}
		return func(tv TxView) {
			vals := make([]T, len(slots))
			for i, s := range slots {
				vals[i] = s.Get(tv)
			}
			out := f(vals)
			if len(out) != len(slots) {
				panic(fmt.Sprintf("stm: AtomicN update returned %d values for %d vars", len(out), len(slots)))
			}
			for i, s := range slots {
				s.Set(tv, out[i])
			}
		}
	})
}

// Atomic1 atomically applies f to one variable with the combinator shape
// of Atomic2/Atomic3. One variable needs no set to compile: it delegates
// to Var.Update (one closure per call) rather than paying AtomicN's
// TxSet build.
func Atomic1[T any](v *Var[T], f func(T) T) error {
	v.Update(f)
	return nil
}

// Atomic2 atomically applies f to two variables — the typed declare-and-
// run form of a static two-word transaction. The vars must share a Memory
// and must not overlap. One-shot convenience: it builds and compiles the
// two-var transaction per call; prepare a TxSet once for hot paths.
func Atomic2[T1, T2 any](v1 *Var[T1], v2 *Var[T2], f func(T1, T2) (T1, T2)) error {
	return atomicRun(v1.m, func(ts *TxSet) func(TxView) {
		s1, s2 := AddVar(ts, v1), AddVar(ts, v2)
		return func(tv TxView) {
			a, b := f(s1.Get(tv), s2.Get(tv))
			s1.Set(tv, a)
			s2.Set(tv, b)
		}
	})
}

// Atomic3 atomically applies f to three variables; see Atomic2.
func Atomic3[T1, T2, T3 any](v1 *Var[T1], v2 *Var[T2], v3 *Var[T3], f func(T1, T2, T3) (T1, T2, T3)) error {
	return atomicRun(v1.m, func(ts *TxSet) func(TxView) {
		s1, s2, s3 := AddVar(ts, v1), AddVar(ts, v2), AddVar(ts, v3)
		return func(tv TxView) {
			a, b, c := f(s1.Get(tv), s2.Get(tv), s3.Get(tv))
			s1.Set(tv, a)
			s2.Set(tv, b)
			s3.Set(tv, c)
		}
	})
}
