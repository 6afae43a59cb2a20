package stm

import "github.com/stm-go/stm/internal/core"

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
