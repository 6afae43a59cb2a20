package stm

import (
	"context"
	"errors"

	"github.com/stm-go/stm/contention"
	"github.com/stm-go/stm/internal/core"
)

// The one way to run a transaction attempt. Every entry point of the
// package that writes — a prepared Tx, Var.Update and Var.Store, WriteAll,
// the commit of a dynamic DTx that wrote — describes the attempt it wants
// as a staged value and hands it to the functions below: attempt arms an
// engine record from the staged form and runs it once; contend (as run,
// for a static operation) retries it under the contention policy and
// closes the operation as committed. Nothing else in the package draws a
// record or runs an attempt. The reads (ReadAllInto, Var.Load, a failed
// Var.CompareAndSwap) are read-only dynamic transactions and never get
// here. See DESIGN.md §6.

// op names the package-level calc an attempt evaluates, and with it which
// of the staged parameters the record needs.
type op uint8

const (
	opUpdate op = iota // calcTx: u
	opStore            // calcStore: repl
	opDyn              // calcStore: d's written values, and its read list
)

var calcs = [...]core.CalcFunc{
	opUpdate: calcTx,
	opStore:  calcStore,
	opDyn:    calcStore,
}

// staged describes one transaction attempt before a record exists for it:
// the data set, strictly ascending as the engine takes it, the calc, and
// that calc's parameters. A prepared Tx contributes its addrs, a DTx its
// compiled fpSorted — the words it wrote — and, through d, the rest of its
// log. The value lives on its entry point's stack; attempt copies what the
// calc will read into the record, so helpers never reach back into it.
//
// The shape is load-bearing for the allocation contract. Go's escape
// analysis is field-insensitive: a value attempt loaded from a staged and
// stored where it outlives the call (the engine keeps the calc, the
// record's scratch keeps the update func for helpers) would drag every
// slice in the struct to the heap with it — and WriteAll promises its
// callers that stack-backed addrs and value slices stay on the stack. So
// the calc is named by op and looked up in calcs rather than carried as a
// func value, and the update sits behind a pointer, where only its
// contents flow on. And entry points hand the value on by pointer, built
// in place.
type staged struct {
	op    op
	addrs []int // strictly ascending, in bounds

	repl []uint64    // opStore; copied into the record
	u    *UpdateInto // opUpdate; copied into the record
	d    *DTx        // opDyn; its log is copied into the record
}

// attempt makes one engine attempt of st: it draws a record, arms it with
// the data set, stages exactly the parameters st.op's calc reads, and runs
// it. On commit the old values land in old (nil to discard them),
// index-aligned with st.addrs. On failure info carries the engine's
// conflict report.
func (m *Memory) attempt(st *staged, old []uint64, info *core.ConflictInfo) bool {
	r := m.eng.Begin(len(st.addrs))
	copy(r.Addrs(), st.addrs)
	s := scratchOf(r)
	switch st.op {
	case opStore:
		// A copy: helpers may evaluate the calc after the caller's slice
		// has moved on.
		s.repl = append(s.repl[:0], st.repl...)
	case opDyn:
		// The data set is the words the transaction wrote; every word it
		// read rides beside it, to be validated against the speculation's
		// epoch sample.
		s.stageDyn(st.d)
		r.SetReadSet(s.rdAddrs, s.rdExp, st.d.epoch)
	case opUpdate:
		s.u = *st.u
	}
	return m.eng.RunAttemptConflict(r, calcs[st.op], old, info)
}

// contend is the one contention loop: it attempts st until the engine
// commits it, reporting each failure to the contention policy and waiting
// out whatever deferral the policy imposes, and then closes the operation
// with the policy as committed. c is the operation's report so far: nil,
// unless the operation conflicted before it got here.
//
// A nil ctx is never cancelled. Otherwise ctx is checked between a failed
// attempt and the policy's (possibly long) deferral — never before the
// first attempt — so a cancelled caller returns promptly instead of
// sleeping out one more wait; the operation is then closed as aborted, its
// final failure counted, so the policy releases whatever it granted.
//
// A dynamic commit whose read list the engine found stale is the one
// exception to retrying: re-attempting would validate the same stale reads
// again, so contend notes the conflict once and returns errStaleRead with
// the report still open, and atomically re-executes the speculation.
func (m *Memory) contend(ctx context.Context, st *staged, old []uint64, c *contention.Conflict) (*contention.Conflict, error) {
	var info core.ConflictInfo
	for !m.attempt(st, old, &info) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				m.abortFailed(c, &info)
				return nil, err
			}
		}
		c = m.noteConflict(c, &info)
		if info.ReadStale {
			return c, errStaleRead
		}
	}
	m.commitConflict(c)
	return nil, nil
}

// errStaleRead is contend's report that a dynamic commit's read list went
// stale: the operation is still open, and the speculation has to re-run.
var errStaleRead = errors.New("stm: a validated read is stale")

// run is contend for an operation that begins and ends with st, which is
// every static one: their entry points are argument checking plus a call
// to run. A static operation has no context, so it always commits.
func (m *Memory) run(st *staged, old []uint64) {
	m.contend(nil, st, old, nil)
}
