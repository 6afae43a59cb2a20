package stm

import "strconv"

// The two word operations that need no update function, over an ascending
// data set the caller already holds: a consistent read, a read-only
// Atomically, and an atomic store staged straight into the driver. Both are
// allocation-free.

// ReadAllInto writes a consistent snapshot of the words at addrs into dst:
// the values all existed at one instant inside the call. It reads them in a
// read-only Atomically, owning no word. addrs must be a data set Prepare
// would accept (non-empty, strictly ascending, in bounds) and len(dst) must
// equal len(addrs). It performs zero heap allocations (amortized).
func (m *Memory) ReadAllInto(addrs []int, dst []uint64) error {
	if len(addrs) != len(dst) {
		return errLengthMismatch(len(addrs), len(dst))
	}
	if err := m.eng.ValidateDataSet(addrs); err != nil {
		return err
	}
	return m.Atomically(func(tx *DTx) error {
		for i, a := range addrs {
			dst[i] = tx.Read(a)
		}
		return nil
	})
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
