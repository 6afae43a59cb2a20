package core

import "sync/atomic"

// Record pooling: the zero-allocation attempt path.
//
// Begin draws a record (with all per-attempt buffers) from a per-Memory
// sync.Pool, the caller fills Addrs/Env, and RunAttempt executes one
// protocol attempt and recycles the record. Reuse is guarded by the
// seal/pin scheme on Rec (see rec.go and DESIGN.md §4): a record returns to
// the pool only when it is sealed and no helper is pinned, so no goroutine
// can observe a record's fields while a later attempt re-arms them. A
// record that still has pinned helpers when its attempt finishes — a third
// of the helped ones, where transactions contend — is parked in a small
// per-Memory limbo (recLimbo), and a later Begin takes it out and, holding
// it alone, finds its helpers gone: the same seal-then-no-pins observation,
// made later. Past limbo's eight slots it is simply abandoned to the
// garbage collector — correctness never depends on the pool hit rate.

const (
	// boxChunk is the number of value boxes carved per backing-array
	// allocation: one heap allocation amortized over boxChunk committed
	// words.
	boxChunk = 512

	// maxPooledK caps the data-set capacity of records kept in the pool,
	// so a one-off giant transaction (e.g. a full-memory snapshot) does not
	// pin its buffers in the pool forever.
	maxPooledK = 4096
)

// Begin returns a record armed for a k-word attempt, drawing from the
// Memory's record pool when possible. The caller must fill rec.Addrs()
// (strictly ascending, in bounds), optionally attach an Env, and then pass
// the record to RunAttempt exactly once. Records must not be retained or
// touched after RunAttempt returns.
func (m *Memory) Begin(k int) *Rec {
	var rec *Rec
	if m.limbo.parked.Load() != 0 {
		rec = m.reclaim()
	}
	if rec == nil {
		if v := m.pool.Get(); v != nil {
			rec = v.(*Rec)
		} else {
			rec = &Rec{
				newHdr:  new([]uint64),
				helpHdr: new([]uint64),
				shard:   int(recSeq.Add(1) % statShards),
			}
		}
	}
	rec.arm(k)
	return rec
}

// arm resets a pooled record for a fresh k-word attempt. The record is
// still sealed (or has never been published) while this runs, so stale
// helpers cannot observe the intermediate state.
func (r *Rec) arm(k int) {
	if cap(r.addrBuf) < k {
		r.addrBuf = make([]int, k)
		r.old = make([]atomic.Pointer[uint64], k)
		r.oldBuf = make([]uint64, k)
		r.newBuf = make([]uint64, k)
	}
	r.addrs = r.addrBuf[:k]
	r.old = r.old[:k]
	for i := range r.old {
		r.old[i].Store(nil)
	}
	r.newVals.Store(nil)
	r.helpClaimed.Store(false)
	r.reads, r.exp, r.sample = nil, nil, 0
	r.verdict.Store(statusNull)
	r.status.Store(statusNull)
	r.allWritten.Store(false)
	r.version.Add(1)
}

// RunAttempt executes one transaction attempt for a record obtained from
// Begin: StartTransaction in the paper. On commit it
// writes the agreed old values (engine order) into oldOut — which may be
// nil to skip them — and returns true. On failure (the attempt was blocked
// by a conflicting transaction, which this call then helped to completion)
// it returns false and the caller should retry with a fresh Begin,
// typically after backoff.
//
// RunAttempt consumes the record: it is recycled (or, if helpers are still
// pinned, parked for a later Begin) before returning, and the caller must
// not touch it — including any Env scratch reached through it — afterwards.
func (m *Memory) RunAttempt(rec *Rec, calc CalcFunc, oldOut []uint64) bool {
	return m.RunAttemptConflict(rec, calc, oldOut, nil)
}

// ConflictInfo describes why an attempt failed: the word it died at —
// whose ownership or lock could not be acquired, or that failed validation.
// It is filled by RunAttemptConflict on the failure path, so the caller can
// tell why an attempt failed without retaining the (recycled) record.
type ConflictInfo struct {
	// Index is the position within the sorted data set at which
	// acquisition or validation failed; Addr is the corresponding word
	// address.
	Index int
	Addr  int
	// ReadStale reports that the attempt failed because its read list
	// (Rec.SetReadSet) was stale: Index is then a position in the read list
	// and Addr the word there. Re-attempting the same list would fail again.
	ReadStale bool
}

// RunAttemptConflict is RunAttempt with conflict telemetry: on failure it
// fills info (which may be nil to skip the inspection) before the record is
// recycled. On success info is left untouched. The attempt itself — how the
// data set is read, validated, and installed — is the Memory's engine's
// protocol; this wrapper owns what every engine shares: stats counting and
// record recycling.
func (m *Memory) RunAttemptConflict(rec *Rec, calc CalcFunc, oldOut []uint64, info *ConflictInfo) bool {
	rec.calc = calc
	m.stats.bump(rec.shard, cAttempts)
	// The observability seam (obs.go): one plain load decides the whole
	// attempt's level, so hooks cost a predicted branch when off and the
	// begin/end pair bracket exactly what the engine executed.
	lvl := m.obsLevel()
	if lvl != ObsOff {
		m.obsBegin(rec, lvl)
	}

	ok := m.attempt(rec, oldOut, info)
	if ok {
		m.stats.bump(rec.shard, cCommits)
	} else {
		m.stats.bump(rec.shard, cFailures)
	}
	if lvl != ObsOff {
		m.obsEnd(rec, lvl, ok)
	}
	m.recycle(rec)
	return ok
}

// PoolResettable lets an Env payload drop caller references — staged
// closures, borrowed slices — before its record parks in the pool, so an
// idle pooled record cannot retain arbitrary caller memory. ResetForPool is
// called only at the quiescence point proven by the seal/pin guard; payload
// buffers kept for amortization should be left intact. A record in limbo
// has not reached that point — a helper may still be evaluating its calc —
// so it keeps its payload until a later Begin reclaims it: at most
// len(recLimbo.slots) payloads per Memory, for as long as the Memory runs
// no transaction.
type PoolResettable interface{ ResetForPool() }

// recLimbo holds the records whose attempt ended with a helper still
// pinned. A slot holds a record only between a park and a take, the record
// is sealed for all of that time, and whoever takes it out holds it alone —
// so a record is in at most one slot, and nothing re-arms it while it is
// there. parked counts the occupied slots (a hint: it trails the slots by
// an instant) so that Begin pays one load when there is nothing to find.
// Every park and take writes here while every Begin reads parked, so the
// block keeps to its own cache lines, like the commit epoch.
type recLimbo struct {
	_      [cacheLineSize - 8]byte
	slots  [8]atomic.Pointer[Rec]
	parked atomic.Int32
	_      [cacheLineSize - 4]byte
}

// recycle seals the record and returns it to the pool if no helper is
// pinned. The seal→pins check pairs with pin's add→seal check (see Rec) so
// a record is pooled only when provably quiescent.
func (m *Memory) recycle(rec *Rec) {
	rec.sealed.Store(true)
	if cap(rec.addrBuf) > maxPooledK {
		return
	}
	if rec.pins.Load() != 0 {
		// A helper is (or may be) executing: park the record where a later
		// Begin will look again.
		m.park(rec)
		return
	}
	rec.quiesce()
	m.pool.Put(rec)
}

// park puts a sealed record the caller holds alone into a free limbo slot,
// or leaves it to the GC if there is none.
func (m *Memory) park(rec *Rec) {
	for i := range m.limbo.slots {
		slot := &m.limbo.slots[i]
		if slot.Load() == nil && slot.CompareAndSwap(nil, rec) {
			m.limbo.parked.Add(1)
			return
		}
	}
}

// quiesce drops what a provably quiescent record still references of its
// last attempt, before it is pooled or re-armed.
func (r *Rec) quiesce() {
	r.calc = nil
	if pr, ok := r.env.(PoolResettable); ok {
		pr.ResetForPool()
	}
}

// reclaim takes a parked record whose helpers have all left, or returns
// nil. The order is the argument: the record is taken out of its slot
// first, and only then are its pins read. Once out it is this caller's
// alone and still sealed — nobody else can re-arm and unseal it — so pins
// at zero now proves what pins at zero in recycle proves: every helper that
// pinned while the record was unsealed has left, and any that pins from
// here on sees the seal and backs off before touching a field. The look at
// pins before the take only skips records still in use; it decides nothing,
// because between it and the take the record may have been reclaimed, run,
// pinned and parked in the same slot again. A record taken out and found
// pinned goes back into limbo.
func (m *Memory) reclaim() *Rec {
	for i := range m.limbo.slots {
		slot := &m.limbo.slots[i]
		rec := slot.Load()
		if rec == nil || rec.pins.Load() != 0 || !slot.CompareAndSwap(rec, nil) {
			continue
		}
		m.limbo.parked.Add(-1)
		if rec.pins.Load() == 0 {
			rec.quiesce()
			return rec
		}
		m.park(rec)
	}
	return nil
}
