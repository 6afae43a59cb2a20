package stm

import "context"

// RunContext is Run with cancellation: it retries (under the contention
// policy) until the transaction commits or ctx is done, returning the old
// values or ctx's error. A transaction that already committed is never
// reported as cancelled — the first attempt is made even under an
// already-cancelled ctx. A nil ctx is never cancelled.
func (tx *Tx) RunContext(ctx context.Context, f UpdateFunc) ([]uint64, error) {
	u := update{fInto: wrapInto(f)}
	st := tx.stage(&u)
	out := make([]uint64, len(tx.sorted))
	if err := tx.m.run(ctx, &st, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunWhenContext is RunWhen with cancellation: it retries until a committed
// attempt's old values satisfy guard (then applies f and returns them) or
// until ctx is done. A nil ctx is never cancelled.
func (tx *Tx) RunWhenContext(ctx context.Context, guard func(old []uint64) bool, f UpdateFunc) ([]uint64, error) {
	u := update{fInto: guardedInto(guard, f)}
	st := tx.stage(&u)
	out := make([]uint64, len(tx.sorted))
	if err := tx.m.runWhen(ctx, &st, out, guard); err != nil {
		return nil, err
	}
	return out, nil
}

// AtomicUpdateContext applies f to addrs as one static transaction with
// cancellation; see AtomicUpdate and RunContext. A nil ctx is never
// cancelled.
func (m *Memory) AtomicUpdateContext(ctx context.Context, addrs []int, f UpdateFunc) ([]uint64, error) {
	tx, err := m.Prepare(addrs)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, ErrNilUpdate
	}
	return tx.RunContext(ctx, f)
}
