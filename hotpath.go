package stm

import (
	"github.com/stm-go/stm/contention"
	"github.com/stm-go/stm/internal/core"
)

// Hot-path plumbing: what an allocation-free attempt is made of.
//
// Every attempt draws a pooled record from the engine and parameterizes a
// package-level core.CalcFunc through a *scratch attached to the record's
// Env (driver.go's attempt is where that happens). Because calc functions
// are plain functions and the scratch rides the record through the engine's
// pool, a steady-state attempt builds no closures and allocates nothing;
// see DESIGN.md §6.

// UpdateInto computes a transaction's new values from the old values,
// writing them into new (len(new) == len(old), both index-aligned with the
// transaction's ascending data set). It is the one function of the paper's
// static transaction, and Tx.RunInto and Tx.TryInto run it.
//
// It must be deterministic and side-effect free, and must not retain old
// or new: under helping, several goroutines may evaluate it concurrently
// for the same transaction over distinct buffers, and all evaluations must
// produce identical values.
type UpdateInto func(old, new []uint64)

// The Memory's confPool recycles contention.Conflict reports so the policy
// hooks cost no allocation in steady state: one report accompanies one
// logical operation (a retry loop, or a single TryInto) and returns to the
// pool when the operation commits or aborts. Reports cannot ride the record
// scratch — an operation spans many pooled records — so they pool
// independently.

// getConflict returns a report armed for an operation over the data set
// starting at first with size words. Addr starts at -1: "no conflict yet".
func (m *Memory) getConflict(first, size int) *contention.Conflict {
	c, ok := m.confPool.Get().(*contention.Conflict)
	if !ok {
		c = &contention.Conflict{}
	}
	*c = contention.Conflict{Addr: -1, First: first, Size: size}
	return c
}

// putConflict recycles a report, dropping any policy state it accumulated
// so an idle pooled report retains nothing of its last operation.
func (m *Memory) putConflict(c *contention.Conflict) {
	*c = contention.Conflict{}
	m.confPool.Put(c)
}

// getWordBuf returns a pooled staging buffer of length k. Typed Var
// operations stage encoded words here: a stack buffer would escape through
// the codec's interface method calls, so pooling is what keeps Store and
// CompareAndSwap allocation-free. Callers must putWordBuf the same pointer
// when done and must not retain the slice (codecs already promise not to).
func (m *Memory) getWordBuf(k int) *[]uint64 {
	p, ok := m.bufPool.Get().(*[]uint64)
	if !ok || cap(*p) < k {
		b := make([]uint64, k)
		p = &b
	}
	*p = (*p)[:k]
	return p
}

func (m *Memory) putWordBuf(p *[]uint64) { m.bufPool.Put(p) }

// The policy protocol of one logical operation, as the driver speaks it: at
// most one report per operation, created on its first conflict (or at a
// clean commit the policy asked to hear about), fed to OnConflict once per
// deferred failure with Attempts counting them, and closed by exactly one
// OnCommit or OnAbort, after which it returns to the pool.

// prioOf reads the policy-assigned priority off an operation's report, or 0
// before the operation has one.
func prioOf(c *contention.Conflict) uint64 {
	if c == nil {
		return 0
	}
	return c.Priority
}

// failedAttempt counts a failed attempt on the operation's report —
// creating the report on the first one — and copies the engine's account of
// it (info must be the ConflictInfo the failed attempt filled).
func (m *Memory) failedAttempt(c *contention.Conflict, first, size int, info *core.ConflictInfo) *contention.Conflict {
	if c == nil {
		c = m.getConflict(first, size)
	}
	c.Attempts++
	c.Addr = info.Addr
	c.Owner = contention.Owner{
		Present:  info.OwnerPresent,
		Version:  info.OwnerVersion,
		Priority: info.OwnerPriority,
	}
	return c
}

// noteConflict reports a failed attempt that will be retried to the
// contention policy and blocks for however long the policy defers the
// retry.
func (m *Memory) noteConflict(c *contention.Conflict, first, size int, info *core.ConflictInfo) *contention.Conflict {
	c = m.failedAttempt(c, first, size, info)
	m.pol.OnConflict(c)
	return c
}

// abortFailed closes an operation whose last attempt failed and will not be
// retried — the caller owns the retry decision (TryInto) or gave up
// (a cancelled context): the policy is told the operation ended, with that
// final failure counted, without being asked to defer anything.
func (m *Memory) abortFailed(c *contention.Conflict, first, size int, info *core.ConflictInfo) {
	m.abortConflict(m.failedAttempt(c, first, size, info))
}

// commitConflict closes an operation as committed, releasing any policy
// resources (tokens, priorities) its report carries. A nil report means the
// operation never conflicted; the policy only hears about it if it opted
// into clean commits, in which case first and size (not consulted
// otherwise) name the data set.
func (m *Memory) commitConflict(c *contention.Conflict, first, size int) {
	if c == nil {
		if !m.allCommits {
			return
		}
		c = m.getConflict(first, size)
	}
	m.pol.OnCommit(c)
	m.putConflict(c)
}

// abortConflict closes an operation that ends without committing and
// without a further failed attempt to count (a dynamic transaction's user
// error, say). An operation that never conflicted has nothing to close.
func (m *Memory) abortConflict(c *contention.Conflict) {
	if c == nil {
		return
	}
	m.pol.OnAbort(c)
	m.putConflict(c)
}

// scratch is the per-record parameter block for the package-level calc
// functions. It persists across pool cycles attached to a record's Env, so
// its buffers amortize to zero allocations. The engine guarantees the
// scratch is quiescent whenever its record is handed out by Begin.
//
// Fields are written only between Begin and RunAttempt (by attempt, on the
// initiating goroutine, which owns the record exclusively then — and only
// the fields the staged op needs) and read — never written — afterwards, by
// calc evaluations and by the engine validating a read list.
type scratch struct {
	// calcTx parameter: the staged update.
	u UpdateInto

	// calcStore parameter: the values to store. A dynamic commit stages its
	// written values here, in engine order.
	repl []uint64

	// Read list (opDyn): every word a dynamic transaction read, in log
	// order, written or not, and the value it read there. Like repl they
	// are copies: helpers may validate the list long after the initiating
	// DTx has moved on, so the record must own its inputs.
	rdAddrs []int
	rdExp   []uint64
}

// ResetForPool drops the caller's update closure so an idle pooled record
// retains nothing of its last caller. The value buffers stay: they are the
// amortization.
func (s *scratch) ResetForPool() { s.u = nil }

// scratchOf returns the scratch riding r, attaching a fresh one on first
// use of a record.
func scratchOf(r *core.Rec) *scratch {
	if s, ok := r.Env().(*scratch); ok {
		return s
	}
	s := &scratch{}
	r.SetEnv(s)
	return s
}

// calcStore overwrites the data set with repl.
func calcStore(env any, _, new []uint64, _ bool) {
	copy(new, env.(*scratch).repl)
}

// calcTx evaluates a prepared transaction's UpdateInto.
func calcTx(env any, old, new []uint64, _ bool) {
	env.(*scratch).u(old, new)
}
