package stm

import (
	"fmt"
	"strconv"
)

// Derived multi-word operations built on static transactions. Single-word
// operations (Add, Swap, CompareAndSwap) and k-word operations over
// already-ascending address sets stage their data set straight into the
// driver, allocation-free; everything else falls back to Prepare + Run.

// checkLoc validates a single-word address.
func (m *Memory) checkLoc(loc int) error {
	if loc < 0 || loc >= m.Size() {
		return fmt.Errorf("%w: addr %d, size %d", ErrAddrRange, loc, m.Size())
	}
	return nil
}

// ascendingInBounds reports whether addrs satisfies the engine's data-set
// precondition (non-empty, strictly ascending, in bounds) — the gate for
// the engine-order fast path. It defers to the engine's own validator so
// the two can never disagree; the error (allocated only on the slow path)
// is discarded because every caller falls back to Prepare, which rebuilds
// a proper one.
func (m *Memory) ascendingInBounds(addrs []int) bool {
	return m.eng.ValidateDataSet(addrs) == nil
}

// ReadAll returns a consistent snapshot of the words at addrs (any order,
// no duplicates): the values all existed simultaneously at the
// transaction's linearization point.
func (m *Memory) ReadAll(addrs ...int) ([]uint64, error) {
	out := make([]uint64, len(addrs))
	if err := m.ReadAllInto(addrs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAllInto is ReadAll writing the snapshot into dst (len(dst) must equal
// len(addrs)); with ascending addrs it performs zero heap allocations
// (amortized).
func (m *Memory) ReadAllInto(addrs []int, dst []uint64) error {
	if len(addrs) != len(dst) {
		return errLengthMismatch(len(addrs), len(dst))
	}
	if !m.ascendingInBounds(addrs) {
		old, err := m.AtomicUpdate(addrs, identityUpdate)
		if err != nil {
			return err
		}
		copy(dst, old)
		return nil
	}
	m.run(nil, &staged{op: opIdentity, addrs: addrs}, dst)
	return nil
}

func identityUpdate(old []uint64) []uint64 {
	nv := make([]uint64, len(old))
	copy(nv, old)
	return nv
}

// Snapshot returns a consistent snapshot of the entire memory. It is one
// transaction over every word, so it conflicts with every concurrent
// writer; prefer ReadAll over the words you need on hot paths.
func (m *Memory) Snapshot() ([]uint64, error) {
	addrs := make([]int, m.Size())
	for i := range addrs {
		addrs[i] = i
	}
	return m.ReadAll(addrs...)
}

// WriteAll atomically stores vals[i] into addrs[i].
func (m *Memory) WriteAll(addrs []int, vals []uint64) error {
	if len(addrs) != len(vals) {
		return errLengthMismatch(len(addrs), len(vals))
	}
	if !m.ascendingInBounds(addrs) {
		stored := make([]uint64, len(vals))
		copy(stored, vals)
		_, err := m.AtomicUpdate(addrs, func(old []uint64) []uint64 { return stored })
		return err
	}
	m.run(nil, &staged{op: opStore, addrs: addrs, repl: vals}, nil)
	return nil
}

// Add atomically adds delta to the word at loc and returns the old value.
// Subtraction is delta's two's complement (wrap-around semantics).
func (m *Memory) Add(loc int, delta uint64) (uint64, error) {
	if err := m.checkLoc(loc); err != nil {
		return 0, err
	}
	var old [1]uint64
	m.run(nil, &staged{op: opAdd, loc: loc, a0: delta}, old[:])
	return old[0], nil
}

// Swap atomically stores v at loc and returns the old value.
func (m *Memory) Swap(loc int, v uint64) (uint64, error) {
	if err := m.checkLoc(loc); err != nil {
		return 0, err
	}
	var old [1]uint64
	m.run(nil, &staged{op: opSwap, loc: loc, a0: v}, old[:])
	return old[0], nil
}

// CompareAndSwap atomically replaces the word at loc with new if it equals
// old, reporting whether the replacement happened.
func (m *Memory) CompareAndSwap(loc int, old, new uint64) (bool, error) {
	if err := m.checkLoc(loc); err != nil {
		return false, err
	}
	var got [1]uint64
	m.run(nil, &staged{op: opCAS1, loc: loc, a0: old, a1: new}, got[:])
	return got[0] == old, nil
}

// CompareAndSwapN is a k-word compare-and-swap: if every word at addrs[i]
// equals expected[i], replace all of them with new[i]; otherwise change
// nothing. It returns whether the swap happened and the observed snapshot
// (index-aligned with addrs) either way. CASN is the classic consumer of
// static transactions and the primitive several of the examples build on.
func (m *Memory) CompareAndSwapN(addrs []int, expected, new []uint64) (bool, []uint64, error) {
	if len(addrs) != len(expected) {
		return false, nil, errLengthMismatch(len(addrs), len(expected))
	}
	if len(addrs) != len(new) {
		return false, nil, errLengthMismatch(len(addrs), len(new))
	}
	old := make([]uint64, len(addrs))
	if m.ascendingInBounds(addrs) {
		m.run(nil, &staged{op: opCASN, addrs: addrs, exp: expected, repl: new}, old)
	} else {
		exp := make([]uint64, len(expected))
		copy(exp, expected)
		nv := make([]uint64, len(new))
		copy(nv, new)
		got, err := m.AtomicUpdate(addrs, func(old []uint64) []uint64 {
			for i := range old {
				if old[i] != exp[i] {
					out := make([]uint64, len(old))
					copy(out, old)
					return out
				}
			}
			return nv
		})
		if err != nil {
			return false, nil, err
		}
		copy(old, got)
	}
	for i := range old {
		if old[i] != expected[i] {
			return false, old, nil
		}
	}
	return true, old, nil
}

func errLengthMismatch(a, b int) error {
	return lengthMismatchError{addrs: a, vals: b}
}

// lengthMismatchError reports addrs/values slices of different lengths.
type lengthMismatchError struct{ addrs, vals int }

func (e lengthMismatchError) Error() string {
	return "stm: addrs and values lengths differ: " +
		strconv.Itoa(e.addrs) + " vs " + strconv.Itoa(e.vals)
}
