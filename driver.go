package stm

import (
	"context"
	"slices"

	"github.com/stm-go/stm/contention"
	"github.com/stm-go/stm/internal/backoff"
	"github.com/stm-go/stm/internal/core"
)

// The one way to run a transaction. Every entry point of the package — a
// prepared Tx, a Var's own operations, the derived word operations, the
// commit of a dynamic DTx — describes the attempt it wants as a staged
// value and hands it to the functions below: attempt arms an engine record
// from the staged form and runs it once; contend (as run, for a static
// operation) retries it under the contention policy and closes the
// operation as committed; runWhen repeats run until a guard holds. Nothing
// else in the package draws a record, runs an attempt, or decides when the
// policy hears what. See DESIGN.md §6.

// op names the package-level calc an attempt evaluates, and with it which
// of the staged parameters the record needs.
type op uint8

const (
	opUpdate   op = iota // calcTx: u
	opAdd                // calcAdd: a0
	opSwap               // calcSwap: a0
	opCAS1               // calcCAS1: a0, a1
	opIdentity           // calcIdentity: nothing
	opStore              // calcStore: repl
	opCASN               // calcCASN: exp, repl
	opDyn                // calcDyn: d's compiled footprint
)

var calcs = [...]core.CalcFunc{
	opUpdate:   calcTx,
	opAdd:      calcAdd,
	opSwap:     calcSwap,
	opCAS1:     calcCAS1,
	opIdentity: calcIdentity,
	opStore:    calcStore,
	opCASN:     calcCASN,
	opDyn:      calcDyn,
}

// staged describes one transaction attempt before a record exists for it:
// the data set in engine order, the calc, and that calc's parameters. A
// prepared Tx contributes sorted (and perm, inside u), a DTx its compiled
// fpSorted (and fpPos, through d), a single-word operation its loc. The
// value lives on its entry point's stack; attempt copies what the calc
// will read into the record, so helpers never reach back into it.
//
// The shape is load-bearing for the allocation contract. Go's escape
// analysis is field-insensitive: a value attempt loaded from a staged and
// stored where it outlives the call (the engine keeps the calc, the
// record's scratch keeps the update funcs for helpers) would drag every
// slice in the struct to the heap with it — and ReadAllInto, WriteAll and
// CompareAndSwapN promise their callers that stack-backed addrs and value
// slices stay on the stack. So the calc is named by op and looked up in
// calcs rather than carried as a func value, and the update sits behind a
// pointer, where only its contents flow on. The single-word form carries
// loc because it needs no slice at all. And entry points hand the value on
// by pointer, built in place: at fifteen words a copy is not free.
type staged struct {
	op    op
	addrs []int // engine order: strictly ascending, in bounds; nil for loc
	loc   int   // the one-word data set, when addrs is nil

	a0, a1    uint64   // opAdd, opSwap, opCAS1
	exp, repl []uint64 // opCASN, opStore; copied into the record
	u         *update  // opUpdate; copied into the record
	d         *DTx     // opDyn; its log is copied into the record
}

// first returns the conflict-domain key the contention policy sees for the
// operation: the lowest address the attempt owns. That is the data set's
// lowest address, except for a dynamic commit, which owns only the words it
// writes — keying it by a word it merely read would put every operation
// that reads a structure's header words into one domain.
func (st *staged) first() int {
	switch {
	case st.addrs == nil:
		return st.loc
	case st.op == opDyn:
		return st.d.lowestWrite()
	}
	return st.addrs[0]
}

// size returns the number of words in the data set.
func (st *staged) size() int {
	if st.addrs == nil {
		return 1
	}
	return len(st.addrs)
}

// attempt makes one engine attempt of st: it draws a record, arms it with
// the data set and prio (the policy-assigned priority, 0 for none), stages
// exactly the parameters st.op's calc reads, and runs it. On commit the old
// values land in old (nil to discard them) — in the caller's declared order
// for a remapped update, in engine order for everything else. On failure
// info carries the engine's conflict report.
func (m *Memory) attempt(st *staged, old []uint64, info *core.ConflictInfo, prio uint64) bool {
	r := m.eng.Begin(st.size())
	if st.addrs == nil {
		r.Addrs()[0] = st.loc
	} else {
		copy(r.Addrs(), st.addrs)
	}
	if prio != 0 {
		r.SetPriority(prio)
	}
	s := scratchOf(r)
	switch st.op {
	case opAdd, opSwap, opCAS1:
		s.a0, s.a1 = st.a0, st.a1
	case opStore, opCASN:
		// Copies: helpers may evaluate the calc after the caller's slices
		// have moved on.
		s.exp = append(s.exp[:0], st.exp...)
		s.repl = append(s.repl[:0], st.repl...)
	case opDyn:
		// The words the transaction wrote are the ones it owns; the rest it
		// read, under the speculation's epoch sample. A footprint it wrote
		// all of needs no split.
		if s.stageDyn(st.d) {
			r.SetReadSet(s.dynWr, s.dynExp, st.d.epoch)
		}
	case opUpdate:
		s.stageUpdate(st.u)
		if s.u.perm != nil {
			s.ensureCaller(len(s.u.perm))
		}
	}
	if !m.eng.RunAttemptConflict(r, calcs[st.op], old, info) {
		return false
	}
	// The engine reported the old values in its own order, and the record
	// (with its scratch) is gone: a remapped update's go back into the
	// caller's declared order here.
	if st.op == opUpdate && st.u.perm != nil && old != nil {
		callerOrder(old, st.u.perm)
	}
	return true
}

// callerOrder permutes vals from engine order into caller order in place:
// vals[i] becomes the value of the caller's i-th address, perm[i] being its
// engine-order index.
func callerOrder(vals []uint64, perm []int) {
	var stack [16]uint64
	eng := stack[:]
	if len(vals) > len(stack) {
		eng = make([]uint64, len(vals))
	}
	copy(eng, vals)
	for i, si := range perm {
		vals[i] = eng[si]
	}
}

// contend is the one contention loop: it attempts st until the engine
// commits it, reporting each failure to the contention policy and waiting
// out whatever deferral the policy imposes, with the policy's priority
// installed on every re-attempt, and then closes the operation with the
// policy as committed. c is the operation's report so far: nil, unless the
// operation conflicted before it got here.
//
// A nil ctx is never cancelled. Otherwise ctx is checked between a failed
// attempt and the policy's (possibly long) deferral — never before the
// first attempt — so a cancelled caller returns promptly instead of
// sleeping out one more wait; the operation is then closed as aborted, its
// final failure counted, so the policy releases whatever it granted.
//
// The engine committing a dynamic transaction's footprint is not yet the
// operation committing — atomically has to see which arm of calcDyn it
// was — so for opDyn, and only then, the report comes back still open.
func (m *Memory) contend(ctx context.Context, st *staged, old []uint64, c *contention.Conflict) (*contention.Conflict, error) {
	var info core.ConflictInfo
	for !m.attempt(st, old, &info, prioOf(c)) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				m.abortFailed(c, st.first(), st.size(), &info)
				return nil, err
			}
		}
		c = m.noteConflict(c, st.first(), st.size(), &info)
	}
	if st.op == opDyn {
		return c, nil
	}
	m.commitConflict(c, st.first(), st.size())
	return nil, nil
}

// run is contend for an operation that begins and ends with st, which is
// every static one: their entry points are argument checking plus a call
// to run (or runWhen). The only error is ctx's, so the context-free entry
// points, which pass nil, have none to look at.
func (m *Memory) run(ctx context.Context, st *staged, old []uint64) error {
	_, err := m.contend(ctx, st, old, nil)
	return err
}

// runWhen is the one condition loop: it runs st — whose update must commit
// the data set unchanged when the guard rejects the old values — until a
// committed round's old values satisfy met. Each round is a whole operation
// to the contention policy, so a guard-unmet round has released its policy
// resources before the condition wait: a serializing policy's token is
// never held while the caller parks waiting for the world to change.
func (m *Memory) runWhen(ctx context.Context, st *staged, old []uint64, met func(old []uint64) bool) error {
	var w condWaiter
	for {
		if err := m.run(ctx, st, old); err != nil {
			return err
		}
		if met(old) {
			return nil
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w.wait(m, old)
	}
}

// condWaiter paces runWhen's guard-unmet rounds: the committed round was a
// condition miss, not contention, so the wait escalates while the snapshot
// stays frozen — a parked waiter must not busy-commit no-op transactions
// against the very words the eventual writer needs — and resets as soon as
// the world visibly moved.
type condWaiter struct {
	bo   *backoff.Exp
	prev []uint64 // last guard-rejected snapshot
}

// wait blocks for the current condition interval, escalating it unless
// snapshot differs from the previous rejected round's.
func (w *condWaiter) wait(m *Memory, snapshot []uint64) {
	if w.bo == nil {
		w.bo = m.newCondBackoff()
		w.prev = slices.Clone(snapshot)
	} else if !slices.Equal(w.prev, snapshot) {
		copy(w.prev, snapshot)
		w.bo.Reset()
	}
	w.bo.Wait()
}
