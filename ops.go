package stm

import "strconv"

// The two word operations that need no update function: a consistent read
// and an atomic store over an ascending data set the caller already holds.
// Both stage the caller's slices straight into the driver, allocation-free.

// ReadAllInto writes a consistent snapshot of the words at addrs into dst:
// the values all existed simultaneously at the transaction's linearization
// point. addrs must be a data set Prepare would accept (non-empty, strictly
// ascending, in bounds) and len(dst) must equal len(addrs). It performs
// zero heap allocations (amortized).
func (m *Memory) ReadAllInto(addrs []int, dst []uint64) error {
	if len(addrs) != len(dst) {
		return errLengthMismatch(len(addrs), len(dst))
	}
	if err := m.eng.ValidateDataSet(addrs); err != nil {
		return err
	}
	m.run(&staged{op: opIdentity, addrs: addrs}, dst)
	return nil
}

// WriteAll atomically stores vals[i] into addrs[i]. addrs must be a data
// set Prepare would accept and len(vals) must equal len(addrs). It performs
// zero heap allocations (amortized).
func (m *Memory) WriteAll(addrs []int, vals []uint64) error {
	if len(addrs) != len(vals) {
		return errLengthMismatch(len(addrs), len(vals))
	}
	if err := m.eng.ValidateDataSet(addrs); err != nil {
		return err
	}
	m.run(&staged{op: opStore, addrs: addrs, repl: vals}, nil)
	return nil
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
