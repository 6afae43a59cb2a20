package stm

import (
	"fmt"
	"sort"

	"github.com/stm-go/stm/internal/core"
)

// Tx is a prepared static transaction: a validated data set bound to a
// Memory. Preparing once amortizes validation, sorting, and the
// caller-order↔engine-order mapping across many executions. A Tx is
// immutable and safe for concurrent use; each Run/Try call is an
// independent transaction.
type Tx struct {
	m        *Memory
	sorted   []int // engine order: strictly ascending
	perm     []int // perm[i] = index in sorted of the caller's addrs[i]
	identity bool  // caller order == engine order: no remapping needed
}

// Prepare validates addrs (any order, no duplicates, in bounds) and returns
// a reusable transaction handle over that data set.
func (m *Memory) Prepare(addrs []int) (*Tx, error) {
	if len(addrs) == 0 {
		return nil, ErrEmptyDataSet
	}
	type slot struct{ addr, pos int }
	slots := make([]slot, len(addrs))
	for i, a := range addrs {
		if a < 0 || a >= m.Size() {
			return nil, fmt.Errorf("%w: addrs[%d]=%d, size %d", ErrAddrRange, i, a, m.Size())
		}
		slots[i] = slot{addr: a, pos: i}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].addr < slots[j].addr })
	sorted := make([]int, len(slots))
	perm := make([]int, len(slots))
	for si, s := range slots {
		if si > 0 && sorted[si-1] == s.addr {
			return nil, core.DupAddrError(s.addr)
		}
		sorted[si] = s.addr
		perm[s.pos] = si
	}
	identity := true
	for i, si := range perm {
		if si != i {
			identity = false
			break
		}
	}
	return &Tx{m: m, sorted: sorted, perm: perm, identity: identity}, nil
}

// Addrs returns a copy of the data set in the caller's original order. It
// allocates the returned slice on every call; hot paths that inspect a
// transaction's data set repeatedly should use AddrsInto with a reused
// buffer instead.
func (tx *Tx) Addrs() []int {
	return tx.AddrsInto(nil)
}

// AddrsInto appends the data set, in the caller's original order, to dst
// and returns the extended slice. Pass dst[:0] of a buffer with capacity
// len(tx.Addrs()) or more to read the data set without allocating.
func (tx *Tx) AddrsInto(dst []int) []int {
	for _, si := range tx.perm {
		dst = append(dst, tx.sorted[si])
	}
	return dst
}

// stage returns the staged form of one execution of tx computing u: the
// sorted data set, and in u the remap back to the caller's declared order.
func (tx *Tx) stage(u *update) staged {
	if !tx.identity {
		u.perm = tx.perm
	}
	return staged{op: opUpdate, addrs: tx.sorted, u: u}
}

// TryInto makes one attempt, writing new values computed by f directly into
// the engine and, on commit, the old values (caller order) into old. old
// may be nil to discard them; otherwise len(old) must equal the data-set
// size. It returns whether the attempt committed; on conflict the blocking
// transaction has been helped and the caller should retry.
//
// For a prepared transaction whose addresses were declared in ascending
// order, a committed TryInto performs zero heap allocations (amortized) —
// see the package performance notes.
func (tx *Tx) TryInto(f UpdateInto, old []uint64) bool {
	tx.checkOld(old)
	u := update{fInto: f}
	st := tx.stage(&u)
	var info core.ConflictInfo
	if !tx.m.attempt(&st, old, &info, 0) {
		tx.m.abortFailed(nil, st.first(), st.size(), &info)
		return false
	}
	tx.m.commitConflict(nil, st.first(), st.size())
	return true
}

// RunInto retries (deferring between failed attempts as the Memory's
// contention policy directs) until the transaction commits, writing the old
// values (caller order) into old unless old is nil. It is the
// allocation-free counterpart of Run.
func (tx *Tx) RunInto(f UpdateInto, old []uint64) {
	tx.checkOld(old)
	u := update{fInto: f}
	st := tx.stage(&u)
	tx.m.run(nil, &st, old)
}

func (tx *Tx) checkOld(old []uint64) {
	if old != nil && len(old) != len(tx.sorted) {
		panic(fmt.Sprintf("stm: old buffer has %d values for a data set of %d", len(old), len(tx.sorted)))
	}
}

// Try makes one attempt. On commit it returns the old values (caller order)
// and true; on conflict it returns nil and false after helping the blocking
// transaction.
func (tx *Tx) Try(f UpdateFunc) ([]uint64, bool) {
	out := make([]uint64, len(tx.sorted))
	if !tx.TryInto(wrapInto(f), out) {
		return nil, false
	}
	return out, true
}

// Run retries (under the Memory's contention policy) until the transaction
// commits, and returns the old values in caller order.
func (tx *Tx) Run(f UpdateFunc) []uint64 {
	out, _ := tx.RunContext(nil, f)
	return out
}

// guardedInto wraps guard and f into one update: attempts whose guard fails
// commit the data set unchanged (a validated no-op).
func guardedInto(guard func(old []uint64) bool, f UpdateFunc) UpdateInto {
	return wrapInto(func(old []uint64) []uint64 {
		if guard(old) {
			return f(old)
		}
		nv := make([]uint64, len(old))
		copy(nv, old)
		return nv
	})
}

// RunWhen retries until a committed attempt's old values satisfy guard,
// then applies f to them; attempts whose guard fails commit the data set
// unchanged (a validated no-op) and retry. This is the building block for
// blocking-style operations — semaphores, bounded queues — in the paper's
// static-transaction model. It returns the old values guard accepted.
//
// Each round commits (or helps) under the contention policy like any other
// transaction; rounds whose guard fails release the policy's per-operation
// resources before the condition wait, so a serializing policy's token is
// never held while this call parks waiting for the world to change.
//
// guard, like f, must be deterministic and side-effect free: both may be
// evaluated by helping goroutines. Whether the guard passed is decided from
// the committed snapshot, never from shared state.
func (tx *Tx) RunWhen(guard func(old []uint64) bool, f UpdateFunc) []uint64 {
	out, _ := tx.RunWhenContext(nil, guard, f)
	return out
}
