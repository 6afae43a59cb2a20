package stm

import (
	"fmt"
	"slices"

	"github.com/stm-go/stm/internal/core"
)

// Tx is a prepared static transaction: a validated data set bound to a
// Memory — the paper's StartTransaction arguments minus the function.
// Preparing once amortizes validation across many executions. A Tx is
// immutable and safe for concurrent use; each RunInto/TryInto call is an
// independent transaction.
type Tx struct {
	m     *Memory
	addrs []int // strictly ascending, in bounds
}

// Prepare validates addrs — non-empty, strictly ascending, in bounds, as
// the paper's data sets are — and returns a reusable transaction handle
// over that data set. A set out of order reports ErrAddrOrder, a repeated
// address ErrDupAddr, an empty one ErrEmptyDataSet, and a word outside the
// Memory ErrAddrRange.
func (m *Memory) Prepare(addrs []int) (*Tx, error) {
	if err := m.eng.ValidateDataSet(addrs); err != nil {
		return nil, err
	}
	return &Tx{m: m, addrs: slices.Clone(addrs)}, nil
}

// TryInto makes one attempt — the paper's StartTransaction — writing the
// new values f computes directly into the engine and, on commit, the old
// values into old. old may be nil to discard them; otherwise len(old) must
// equal the data-set size. It returns whether the attempt committed; on
// conflict the blocking transaction has been helped and the caller should
// retry. A committed TryInto performs zero heap allocations (amortized).
func (tx *Tx) TryInto(f UpdateInto, old []uint64) bool {
	tx.check(f, old)
	st := staged{op: opUpdate, addrs: tx.addrs, u: &f}
	var info core.ConflictInfo
	if !tx.m.attempt(&st, old, &info) {
		tx.m.abortFailed(nil, &info)
		return false
	}
	return true
}

// RunInto retries (deferring between failed attempts as the Memory's
// contention policy directs) until the transaction commits, writing the old
// values into old unless old is nil. It performs zero heap allocations
// (amortized).
func (tx *Tx) RunInto(f UpdateInto, old []uint64) {
	tx.check(f, old)
	tx.m.run(&staged{op: opUpdate, addrs: tx.addrs, u: &f}, old)
}

// check panics, on the caller's goroutine and before any record is armed,
// on a call no attempt could serve: once armed, a record's words belong to
// it until some goroutine finishes it, and a nil f would panic every helper
// that tried.
func (tx *Tx) check(f UpdateInto, old []uint64) {
	if f == nil {
		panic(ErrNilUpdate)
	}
	if old != nil && len(old) != len(tx.addrs) {
		panic(fmt.Sprintf("stm: old buffer has %d values for a data set of %d", len(old), len(tx.addrs)))
	}
}
