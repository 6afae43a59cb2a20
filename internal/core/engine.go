package core

import (
	"fmt"
	"sync/atomic"
)

// Engine is one commit protocol over a Memory's word array: the strategy
// every transaction attempt — static, typed, or dynamic — executes through.
// Engines share the Memory's padded word lines, pooled records, stats
// shards, and per-word conflict telemetry; they differ in how an attempt
// reads its data set, validates it, and installs new values.
//
// Two engines exist. EngineST is the source paper's cooperative-helping
// ownership protocol: an attempt acquires ownership of its whole data set
// — the words it installs; the words its caller read ride beside it as a
// read list (Rec.SetReadSet), validated and never owned for it — and a
// blocked attempt helps its blocker to completion, which keeps the protocol
// non-blocking. EngineTL2 is a TL2/LSA-style global-version-clock protocol:
// reads are invisible (ownership-free, validated against a read version
// sampled from the clock), writes are buffered and installed under short
// per-word locks at commit, and an attempt whose computed new values equal
// its old values commits with no atomic read-modify-write at all, which
// EngineST cannot offer. The trade-off is liveness: TL2 commits hold
// locks, so a preempted committer briefly blocks conflicting writers (they
// fail and defer to the contention policy) instead of being helped. A
// transaction that writes nothing — every read of the stm package — makes
// no attempt on either engine. See DESIGN.md §11.
type Engine interface {
	// Kind identifies the protocol.
	Kind() EngineKind

	// Attempt executes one armed attempt for rec: read (or acquire) the
	// data set, agree a consistent old-value snapshot, evaluate rec's calc,
	// validate, and install. On commit it writes the snapshot (engine
	// order) into oldOut — which may be nil — and returns true. On failure
	// it fills info (which may be nil) with the conflict report and bumps
	// the failing word's conflict counter. The caller owns stats counting
	// and record recycling.
	Attempt(rec *Rec, oldOut []uint64, info *ConflictInfo) bool

	// StableLoadBox returns a box that was loc's current value at an
	// instant when no commit was mid-install at that word — the engine-
	// specific half of Memory.StableLoadBox (EngineST helps an observed
	// owner to completion; EngineTL2 waits out the short lock window).
	StableLoadBox(loc int) *uint64
}

// EngineKind selects a Memory's commit protocol at construction.
type EngineKind uint8

const (
	// EngineST is Shavit & Touitou's cooperative-helping ownership
	// protocol — the source paper's engine, and the default.
	EngineST EngineKind = iota
	// EngineTL2 is the TL2/LSA-style global-version-clock protocol:
	// invisible reads, lazy writes, short locking commits.
	EngineTL2
)

// engineNames are the canonical selector strings, index-aligned with the
// EngineKind constants.
var engineNames = [...]string{"st", "tl2"}

// String returns the kind's selector name ("st", "tl2").
func (k EngineKind) String() string {
	if int(k) < len(engineNames) {
		return engineNames[k]
	}
	return fmt.Sprintf("EngineKind(%d)", uint8(k))
}

// EngineKinds returns every available engine kind, in selector order.
func EngineKinds() []EngineKind { return []EngineKind{EngineST, EngineTL2} }

// attempt dispatches one armed attempt to the Memory's engine. It is a type
// switch rather than an interface call on purpose: callers keep their
// ConflictInfo (and sometimes their old-value buffer) on the stack, and an
// interface call would make escape analysis spill them to the heap — one
// allocation per transaction. The concrete calls have write-only parameter
// summaries, so everything stays stack-allocated. newEngine is the only
// constructor, so the switch is exhaustive.
func (m *Memory) attempt(rec *Rec, oldOut []uint64, info *ConflictInfo) bool {
	switch e := m.engine.(type) {
	case *stEngine:
		return e.Attempt(rec, oldOut, info)
	case *tl2Engine:
		return e.Attempt(rec, oldOut, info)
	}
	panic("core: unreachable engine kind")
}

// newEngine builds the protocol implementation for kind over m.
func newEngine(kind EngineKind, m *Memory) (Engine, error) {
	switch kind {
	case EngineST:
		e := &stEngine{m: m}
		m.epoch = &e.epoch
		return e, nil
	case EngineTL2:
		e := &tl2Engine{m: m}
		m.epoch = &e.clock
		return e, nil
	default:
		return nil, fmt.Errorf("core: unknown engine kind %d", uint8(kind))
	}
}

// stEngine adapts the paper's cooperative-helping protocol — whose phases
// live as Memory methods (transaction, acquireOwnerships, agreeOldValues,
// updateMemory, releaseOwnerships) so the white-box protocol tests keep
// their access — to the Engine interface.
type stEngine struct {
	m *Memory
	_ [cacheLineSize - 8]byte

	// epoch is the ST engine's commit-epoch word (Memory.CommitEpoch): the
	// protocol itself needs no global clock, so this counter exists only for
	// dynamic transactions' snapshot validation. Every participant of a
	// value-changing commit bumps it between deciding Success and its first
	// install (Memory.transaction). It sits alone on its cache line, like the
	// TL2 clock it stands in for.
	epoch atomic.Uint64
	_     [cacheLineSize - 8]byte
}

func (e *stEngine) Kind() EngineKind { return EngineST }

// Attempt runs the protocol for rec to completion from the initiating
// goroutine, with the stable window open so contending transactions may
// help. An attempt that failed at an ownership conflict has helped its
// blocker before returning; one whose read list was stale helps nobody.
func (e *stEngine) Attempt(rec *Rec, oldOut []uint64, info *ConflictInfo) bool {
	m := e.m
	lvl := m.obsLevel()

	// Unseal only now: between Begin and here the caller was writing addrs
	// and env, and the seal kept any stale helper (still holding this
	// record's pointer from a previous attempt) from acting on the
	// half-armed state.
	rec.sealed.Store(false)
	rec.stable.Store(true)
	m.transaction(rec, true)
	rec.stable.Store(false)

	if rec.Succeeded() {
		if i, stale := rec.staleRead(); stale {
			return m.failAttempt(rec, info, ConflictInfo{Index: i, Addr: rec.reads[i], ReadStale: true}, ReasonSTValidate)
		}
		// ST owns its whole data set, which is the write set — its
		// acquisition is the protocol's lock phase.
		owned := len(rec.addrs)
		m.stats.shards[rec.shard].c[cOwnedWords].Add(uint64(owned))
		if lvl != ObsOff {
			rec.obsWrites = owned
			m.obsEmit(rec, EvLock, -1, owned)
		}
		if oldOut != nil {
			rec.snapshotInto(oldOut)
		}
		return true
	}
	// Taxonomy: every other ST failure is an ownership conflict; the two
	// sub-reasons split on whether this attempt's failure path executed
	// the blocker's protocol (rec.obsHelped, set by m.transaction).
	// A record decided Success by a helper after the status check failed
	// nowhere (rare): it reports address -1.
	addr := -1
	idx, failed := rec.FailedIndex()
	if failed {
		addr = rec.addrs[idx]
	}
	if rec.obsHelped {
		rec.obsFail(ReasonSTHelped, addr)
	} else {
		rec.obsFail(ReasonSTConflict, addr)
	}
	if info != nil {
		*info = ConflictInfo{Index: idx, Addr: addr}
	}
	return false
}

// StableLoadBox returns a committed box for loc, helping any stable owner
// to completion first — the protocol's non-blocking answer to every stall.
func (e *stEngine) StableLoadBox(loc int) *uint64 { return e.m.stStableLoadBox(loc) }

// failAttempt ends an attempt that died at the word at describes: it charges
// the word's conflict counter, records the abort taxonomy entry, and fills
// the caller's conflict report with at — the policy's ConflictInfo and the
// obs seam's reason come from the same failure site, so the two surfaces
// can never disagree.
func (m *Memory) failAttempt(rec *Rec, info *ConflictInfo, at ConflictInfo, reason AbortReason) bool {
	m.words[at.Addr].conflicts.Add(1)
	rec.obsFail(reason, at.Addr)
	if m.obsLevel() != ObsOff && reason != ReasonTL2Lock {
		// Admission and validation failures are validation events; a lost
		// lock CAS is reported by EvAbort alone.
		m.obsEmit(rec, EvValidationFail, at.Addr, -1)
	}
	if info != nil {
		*info = at
	}
	return false
}
