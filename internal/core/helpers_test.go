package core

import "fmt"

// updateFunc is the slice-returning update shape the tests are written in:
// new values from old, both in engine order.
type updateFunc func(old []uint64) []uint64

// calcOf adapts f to the engine's CalcFunc contract.
func calcOf(f updateFunc) CalcFunc {
	return func(_ any, old, new []uint64, _ bool) {
		if n := copy(new, f(old)); n != len(new) {
			panic(fmt.Sprintf("core test: update returned %d values for a data set of %d", n, len(new)))
		}
	}
}

// armedRec draws a record armed for one attempt of f over addrs, unsealed
// so white-box tests can install it as an owner and have it helped.
func armedRec(m *Memory, addrs []int, f updateFunc) *Rec {
	if err := m.ValidateDataSet(addrs); err != nil {
		panic(err)
	}
	rec := m.Begin(len(addrs))
	copy(rec.Addrs(), addrs)
	rec.calc = calcOf(f)
	rec.sealed.Store(false)
	return rec
}

// tryOnce makes one attempt of f over addrs through the engine's only
// attempt path. On commit it returns the agreed old values and true.
func tryOnce(m *Memory, addrs []int, f updateFunc) ([]uint64, bool) {
	rec := armedRec(m, addrs, f)
	old := make([]uint64, len(addrs))
	if !m.RunAttempt(rec, rec.calc, old) {
		return nil, false
	}
	return old, true
}
