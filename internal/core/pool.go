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
// record that still has pinned helpers when its attempt finishes is simply
// abandoned to the garbage collector — correctness never depends on the
// pool hit rate.

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
	if v := m.pool.Get(); v != nil {
		rec = v.(*Rec)
	} else {
		rec = &Rec{
			newHdr: new([]uint64),
			shard:  int(recSeq.Add(1) % statShards),
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
	r.status.Store(statusNull)
	r.allWritten.Store(false)
	r.prio.Store(0)
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
// RunAttempt consumes the record: it is recycled (or abandoned to the GC if
// helpers are still pinned) before returning, and the caller must not touch
// it — including any Env scratch reached through it — afterwards.
func (m *Memory) RunAttempt(rec *Rec, calc CalcFunc, oldOut []uint64) bool {
	return m.RunAttemptConflict(rec, calc, oldOut, nil)
}

// ConflictInfo describes why an attempt failed: the word whose ownership
// could not be acquired and a snapshot of the record observed blocking it.
// It is filled by RunAttemptConflict on the failure path so contention
// policies can be fed without retaining the (recycled) record.
type ConflictInfo struct {
	// Index is the position within the sorted data set at which
	// acquisition failed; Addr is the corresponding word address.
	Index int
	Addr  int
	// OwnerPresent reports whether a blocking record was still installed
	// at Addr when the failure was inspected; when false the blocker
	// already completed (or was helped to completion by this very attempt)
	// and the fields below are zero.
	OwnerPresent bool
	// OwnerVersion and OwnerPriority are racy snapshots of the blocking
	// record's attempt identity and contention-policy priority. They are
	// advisory: the owner may have moved on to a later attempt between the
	// conflict and the inspection.
	OwnerVersion  uint64
	OwnerPriority uint64
}

// RunAttemptConflict is RunAttempt with conflict telemetry: on failure it
// fills info (which may be nil to skip the inspection) before the record is
// recycled. On success info is left untouched. The attempt itself — how the
// data set is read, validated, and installed — is the Memory's engine's
// protocol; this wrapper owns what every engine shares: stats counting and
// record recycling.
func (m *Memory) RunAttemptConflict(rec *Rec, calc CalcFunc, oldOut []uint64, info *ConflictInfo) bool {
	rec.calc = calc
	m.stats.attempt(rec.shard)
	// The observability seam (obs.go): one plain load decides the whole
	// attempt's level, so hooks cost a predicted branch when off and the
	// begin/end pair bracket exactly what the engine executed.
	lvl := m.obsLevel()
	if lvl != ObsOff {
		m.obsBegin(rec, lvl)
	}

	ok := m.attempt(rec, oldOut, info)
	if ok {
		m.stats.commit(rec.shard)
	} else {
		m.stats.failure(rec.shard)
	}
	if lvl != ObsOff {
		m.obsEnd(rec, lvl, ok)
	}
	m.recycle(rec)
	return ok
}

// fillConflict inspects a failed record before it is recycled. All reads of
// the blocking record go through atomics, so a concurrently re-armed owner
// yields stale-but-safe values.
func (m *Memory) fillConflict(rec *Rec, info *ConflictInfo) {
	*info = ConflictInfo{Addr: -1}
	idx, failed := rec.FailedIndex()
	if !failed {
		return // decided Success by a helper after the status check; rare
	}
	addr := rec.addrs[idx]
	info.Index, info.Addr = idx, addr
	if owner := m.words[addr].owner.Load(); owner != nil && owner != rec {
		info.OwnerPresent = true
		info.OwnerVersion = owner.version.Load()
		info.OwnerPriority = owner.prio.Load()
	}
}

// PoolResettable lets an Env payload drop caller references — staged
// closures, borrowed slices — before its record parks in the pool, so an
// idle pooled record cannot retain arbitrary caller memory. ResetForPool is
// called only at the quiescence point proven by the seal/pin guard; payload
// buffers kept for amortization should be left intact.
type PoolResettable interface{ ResetForPool() }

// recycle seals the record and returns it to the pool if no helper is
// pinned. The seal→pins check pairs with pin's add→seal check (see Rec) so
// a record is pooled only when provably quiescent.
func (m *Memory) recycle(rec *Rec) {
	rec.sealed.Store(true)
	if rec.pins.Load() != 0 {
		return // a stale helper is (or may be) executing: leave to GC
	}
	if cap(rec.addrBuf) > maxPooledK {
		return
	}
	rec.calc = nil
	if pr, ok := rec.env.(PoolResettable); ok {
		pr.ResetForPool()
	}
	m.pool.Put(rec)
}
