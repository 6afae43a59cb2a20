package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Validation errors returned by Memory methods.
var (
	// ErrAddrRange reports a data-set address outside [0, Size).
	ErrAddrRange = errors.New("core: address out of range")
	// ErrAddrOrder reports a data set that is not strictly ascending.
	ErrAddrOrder = errors.New("core: data set must be strictly ascending (sorted, no duplicates)")
	// ErrDupAddr reports a data set containing the same address twice.
	ErrDupAddr = errors.New("core: data set contains a duplicate address")
	// ErrEmptyDataSet reports an empty data set.
	ErrEmptyDataSet = errors.New("core: empty data set")
	// ErrNilUpdate reports a nil update function.
	ErrNilUpdate = errors.New("core: nil update function")
)

// DupAddrError is a duplicate-address validation failure; it matches
// ErrDupAddr under errors.Is. (It historically also matched ErrAddrOrder,
// because duplicates used to be reported as ordering errors; that
// deprecated compatibility window is over.)
type DupAddrError int

func (e DupAddrError) Error() string {
	return fmt.Sprintf("%v: address %d appears more than once", ErrDupAddr, int(e))
}

// Is makes errors.Is(err, ErrDupAddr) hold.
func (e DupAddrError) Is(target error) bool {
	return target == ErrDupAddr
}

// cacheLineSize is the assumed coherence granularity. 64 bytes covers
// x86-64 and most arm64 server parts; on CPUs with larger lines the layout
// degrades gracefully (two words per line instead of one).
const cacheLineSize = 64

// word is one transactional memory word: the value cell, its ownership
// record, its TL2 version stamp, and its conflict counter, packed into a
// single cache line. A transaction touching address i CASes the owner,
// loads the cell, and CASes the cell — all on one line — and transactions
// on adjacent addresses never false-share. The conflict counter rides the
// same line because it is only bumped when an attempt fails at this word —
// a moment when the line is already bouncing — and the version stamp rides
// it because the TL2 engine always reads or writes it next to the cell.
// The padding is computed from the actual field sizes so the layout holds
// on 32-bit platforms too. See DESIGN.md §3 for the layout rationale.
type word struct {
	cell  atomic.Pointer[uint64]
	owner atomic.Pointer[Rec]
	// version is the TL2 engine's write stamp: the global-clock value of
	// the commit that last installed this word's value. The ST engine
	// never touches it (its version witness is the box pointer itself).
	version   atomic.Uint64
	conflicts atomic.Uint64 // failed attempts that died at this word
	_         [cacheLineSize - (unsafe.Sizeof(atomic.Pointer[uint64]{})+unsafe.Sizeof(atomic.Pointer[Rec]{})+2*unsafe.Sizeof(atomic.Uint64{}))%cacheLineSize]byte
}

// Memory is a software transactional memory of fixed size: a vector of
// uint64 words supporting static transactions per Shavit–Touitou. All
// methods are safe for concurrent use.
//
// Words are stored as pointers to immutable boxes so that pointer
// CompareAndSwap provides LL/SC semantics (see package documentation). A
// word no commit has changed holds nil, which reads as 0 (BoxVal).
type Memory struct {
	// chunks holds each chunk's first word, nil until a write builds it
	// (see word and peek); size is the Memory's length in words.
	chunks []atomic.Pointer[word]
	size   int
	engine Engine     // commit protocol; see engine.go
	kind   EngineKind // engine.Kind(), cached for the obs hot path

	// epoch is the engine's commit-epoch word (see CommitEpoch): the TL2
	// engine's global clock, the ST engine's padded step counter. It lives
	// in the engine, alone on a cache line; the pointer is fixed at
	// construction so reading it costs no dispatch.
	epoch *atomic.Uint64

	stats Stats
	pool  sync.Pool // of *Rec; see pool.go

	// limbo parks records whose attempt ended while a helper was still
	// pinned to them, for a later Begin to take back once the helper has
	// left. See pool.go.
	limbo recLimbo

	// Observability seam (see obs.go). obsLvl is the hot-path gate — one
	// plain load per hook site; ObsOff means every hook is a predicted
	// not-taken branch. obsPtr holds the registered configuration, swapped
	// whole so readers always see a consistent observer and sampling
	// period.
	obsLvl atomic.Uint32
	obsPtr atomic.Pointer[obsState]

	// Chaos seam (see chaos.go). Same gate discipline as the obs seam:
	// chaosOn is one plain load per injection site, predicted not-taken
	// while no hook is registered; chaosPtr holds the registered hook.
	chaosOn  atomic.Uint32
	chaosPtr atomic.Pointer[chaosState]
}

// NewMemory returns a Memory of size words, all initialized to zero,
// running the default Shavit–Touitou engine.
func NewMemory(size int) (*Memory, error) {
	return NewMemoryEngine(size, EngineST)
}

// NewMemoryEngine returns a Memory of size words, all initialized to zero,
// whose transactions execute through the given commit engine. The engine is
// fixed for the Memory's lifetime: every transaction on one Memory speaks
// the same protocol. Construction allocates only the chunk table: a word
// is built, with the rest of its chunk, on its first write, and reads as 0
// until then (see word and peek).
func NewMemoryEngine(size int, kind EngineKind) (*Memory, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: memory size must be positive, got %d", size)
	}
	m := &Memory{chunks: make([]atomic.Pointer[word], (size+chunkWords-1)>>chunkShift), size: size}
	eng, err := newEngine(kind, m)
	if err != nil {
		return nil, err
	}
	m.engine = eng
	m.kind = eng.Kind()
	return m, nil
}

// Engine returns the Memory's commit engine.
func (m *Memory) Engine() Engine { return m.engine }

// EngineKind returns the kind of the Memory's commit engine.
func (m *Memory) EngineKind() EngineKind { return m.engine.Kind() }

// Size returns the number of words in the memory.
func (m *Memory) Size() int { return m.size }

// A Memory's words live in chunks of chunkWords (256 KiB of padded words),
// each allocated by the first write to any of its words; the last chunk
// holds only the words left over. A chunk is published with one CAS on its
// table slot before any of its words is owned, locked, stamped or
// installed, so a slot that reads nil stands for chunkWords words that are
// unowned, unstamped and nil-celled at that load — the state unwritten
// holds. See DESIGN.md §2.
const (
	chunkShift = 12
	chunkWords = 1 << chunkShift
	chunkMask  = chunkWords - 1
)

// unwritten is the word a load finds in a chunk that was never built: nil
// cell, no owner, version 0, no conflicts. Nothing ever stores to it.
var unwritten word

// peek returns loc's word for loading: &unwritten if loc's chunk was never
// built. Every load-only access goes through it; nothing may store through
// the pointer it returns.
func (m *Memory) peek(loc int) *word {
	if uint(loc) >= uint(m.size) {
		panic(ErrAddrRange)
	}
	c := m.chunks[loc>>chunkShift].Load()
	if c == nil {
		return &unwritten
	}
	return wordAt(c, loc&chunkMask)
}

// word returns loc's word for a store, CAS or Add. If no write has built
// loc's chunk yet, it builds it and publishes it with one CAS on the table
// slot; a goroutine that loses the CAS drops its allocation and uses the
// winner's chunk.
func (m *Memory) word(loc int) *word {
	if w := m.peek(loc); w != &unwritten {
		return w
	}
	ci := loc >> chunkShift
	c := &make([]word, m.chunkLen(ci))[0]
	if !m.chunks[ci].CompareAndSwap(nil, c) {
		c = m.chunks[ci].Load()
	}
	return wordAt(c, loc&chunkMask)
}

// chunkLen is the number of words in chunk ci.
func (m *Memory) chunkLen(ci int) int { return min(chunkWords, m.size-ci<<chunkShift) }

// builtChunks counts the chunks some write has built.
func (m *Memory) builtChunks() int {
	n := 0
	for ci := range m.chunks {
		if m.chunks[ci].Load() != nil {
			n++
		}
	}
	return n
}

// builtChunk returns chunk ci's words, or nil if it was never built.
func (m *Memory) builtChunk(ci int) []word {
	c := m.chunks[ci].Load()
	if c == nil {
		return nil
	}
	return unsafe.Slice(c, m.chunkLen(ci))
}

// wordAt is the i-th word of the chunk starting at c. The callers' range
// check on loc keeps i inside the chunk's allocation.
func wordAt(c *word, i int) *word {
	return (*word)(unsafe.Add(unsafe.Pointer(c), uintptr(i)*unsafe.Sizeof(word{})))
}

// Peek reads a single word without transactional protection. The value is
// an atomic snapshot of one word but carries no consistency guarantee
// relative to other words; use a transaction for multi-word reads. A word
// no commit has changed reads 0.
func (m *Memory) Peek(loc int) uint64 { return BoxVal(m.peek(loc).cell.Load()) }

// BoxVal is the value a loaded box stands for: *box, or 0 for nil, the
// first box of every word. Every dereference of a cell's box goes through
// it.
func BoxVal(box *uint64) uint64 {
	if box == nil {
		return 0
	}
	return *box
}

// LoadBox reads loc's current value box without acquiring ownership:
// BoxVal(box) is the word's value, and the pointer itself is a version
// witness — because committed transactions install a fresh box whenever a
// word's value changes (and only then; an equal-value write keeps the old
// box, and a published box is never republished), two equal LoadBox
// results bracket an interval in which the word's value never changed.
// Every word's first box is nil, which stands for 0: the first install that
// changes the word's value replaces it, and nothing stores nil again, so
// nil is a witness like any other box.
//
// A raw LoadBox may observe the physical mid-install state of a multi-word
// commit (updateMemory CASes one word at a time while ownership is held),
// and says nothing about a commit that owns the word and has yet to install
// over it, so consumers needing a committed value — or proof that a logged
// box is still the committed one, which is what a dynamic transaction's
// snapshot extension needs — must use StableLoadBox. The raw form is for
// change detection alone: a parked Retry polls it, and there a mid-install
// pointer difference is exactly the signal wanted. See the stm package's
// Atomically and DESIGN.md §9.
func (m *Memory) LoadBox(loc int) *uint64 { return m.peek(loc).cell.Load() }

// CommitEpoch reads the Memory's commit epoch: one monotone word that
// changes value at least once per value-changing commit, at an instant —
// the commit's step — when the commit already holds ownership (ST) or the
// commit lock (TL2) of every word it will install, and has installed none
// of them. A commit that changes no value steps only on ST, and only if it
// carries a read list: a dynamic commit that read anything steps once
// before it validates, even when it writes back the values it read. One
// that changes no value steps not at all on TL2, which locks no word whose
// value stays, nor on ST without a read list (a blind equal-value write).
// Steps that belong to no install (a helper's repeat of its record's step,
// a TL2 attempt that steps and then fails validation) are harmless:
// readers only ever conclude something from the word NOT having moved.
//
// That conclusion is what makes a dynamic transaction's reads O(1): boxes
// obtained through StableLoadBox at instants inside an interval over which
// CommitEpoch did not change are all still current at the latest of those
// instants. A commit that replaced one of them in between stepped either
// inside the interval, which the unchanged epoch rules out, or before it —
// and then it held the word from before the interval began until after its
// install, so the word was never unowned at the stable instant in between.
// See DESIGN.md §9.
func (m *Memory) CommitEpoch() uint64 { return m.epoch.Load() }

// StableLoadBox is LoadBox restricted to committed states: the returned
// box (nil for a word no commit has changed; read it through BoxVal) was
// loc's current value at an instant when no transaction owned the word —
// and since a multi-word commit holds ownership (ST) or its commit locks
// (TL2) on its entire install set from before its first install until
// after its last, that instant cannot fall inside anyone's install phase.
// The double-check is sound because published boxes are never reused, nil
// included: cell==box before and after the owner check means the cell held
// box throughout. How an owned word is waited out is engine-specific: the
// ST engine helps the owner to completion (the protocol's non-blocking
// answer to every stall), the TL2 engine yields until the short commit
// lock is released. Dynamic transactions build their speculative snapshot
// reads on this; see DESIGN.md §9's opacity argument.
func (m *Memory) StableLoadBox(loc int) *uint64 { return m.engine.StableLoadBox(loc) }

// stStableLoadBox is the ST engine's StableLoadBox: an observed stable
// owner is helped to completion before re-inspecting.
func (m *Memory) stStableLoadBox(loc int) *uint64 {
	w := m.peek(loc)
	for {
		box := w.cell.Load()
		if owner := w.owner.Load(); owner == nil {
			if w.cell.Load() == box {
				return box
			}
			continue
		} else if owner.pin() {
			helped := owner.stable.Load()
			if helped {
				// Chaos injection: a reader stalls mid-helping exactly as a
				// failed initiator does, its blocker pinned. Readers own
				// nothing, so where reads dominate this is where the helping
				// happens — and the only place the stall can be injected.
				if m.chaosOn.Load() != 0 {
					m.chaosFire(ChaosSTHelping, []int{loc}, -1)
				}
				m.stats.bump(owner.shard, cHelps)
				m.transaction(owner, false)
			}
			owner.unpin()
			if helped {
				continue // the owner is complete; re-inspect immediately
			}
		}
		// The owner was transient (sealed, or not yet stable): let it run.
		runtime.Gosched()
	}
}

// Stats returns a snapshot of the memory's protocol counters, abort
// taxonomy, and (when histogram-level observability is enabled) attempt
// histograms. See StatsSnapshot for the torn-window contract and the
// per-engine counter semantics.
func (m *Memory) Stats() StatsSnapshot { return m.stats.snapshot() }

// ConflictCount returns the number of failed attempts whose ownership
// acquisition died at loc since construction or the last ResetStats. It is
// the engine's per-word conflict telemetry: a hot word is one whose counter
// grows fastest.
func (m *Memory) ConflictCount(loc int) uint64 { return m.peek(loc).conflicts.Load() }

// ResetStats opens a fresh observation window in one sweep: it zeroes the
// protocol counters, the abort-taxonomy and TL2 telemetry counters, every
// histogram bin, and every per-word conflict counter. Concurrent
// transactions keep running — the sweep is not atomic across fields, so a
// bump racing the reset lands in either the old or the new window and a
// concurrent Stats call may observe a half-zeroed snapshot (the torn-window
// contract on StatsSnapshot) — which is exactly what lets callers window
// abort rates without quiescing the memory.
func (m *Memory) ResetStats() {
	m.stats.reset()
	for ci := range m.chunks {
		c := m.builtChunk(ci)
		for i := range c {
			c[i].conflicts.Store(0)
		}
	}
}

// ValidateDataSet checks that addrs is non-empty, strictly ascending, and
// within bounds. It is exported so callers can validate once and then run
// many attempts with the same data set.
func (m *Memory) ValidateDataSet(addrs []int) error {
	if len(addrs) == 0 {
		return ErrEmptyDataSet
	}
	for i, a := range addrs {
		if a < 0 || a >= m.size {
			return fmt.Errorf("%w: addrs[%d]=%d, size %d", ErrAddrRange, i, a, m.size)
		}
		if i > 0 && addrs[i-1] == a {
			return DupAddrError(a)
		}
		if i > 0 && addrs[i-1] > a {
			return fmt.Errorf("%w: addrs[%d]=%d follows %d", ErrAddrOrder, i, a, addrs[i-1])
		}
	}
	return nil
}

// transaction runs the protocol for rec to completion, from any phase. It
// is executed by the initiating goroutine and, under contention, by helpers
// (initiator=false), for whom the helping clause is disabled — the paper's
// non-redundant helping.
func (m *Memory) transaction(rec *Rec, initiator bool) {
	m.acquireOwnerships(rec)

	st := rec.status.Load()
	if st == statusNull {
		// All ownerships acquired (by us and/or helpers): decide Success.
		// The CAS can lose only to a concurrent decision; reload either way.
		rec.status.CompareAndSwap(statusNull, statusSuccess)
		st = rec.status.Load()
	}

	if st == statusSuccess {
		// Chaos injection: the initiator stalls here with its whole data
		// set owned and nothing installed — the exact stall cooperative
		// helping exists to absorb. Helpers never fire (a parked helper
		// would multiply one injected stall across every rescuer).
		if initiator && m.chaosOn.Load() != 0 {
			m.chaosFire(ChaosSTPostLock, rec.addrs, len(rec.addrs))
		}
		// An attempt with a read list steps (unconditionally) and settles it
		// before anything else is agreed. A stale verdict ends the attempt:
		// every participant releases what the record owns, having agreed
		// and installed nothing, and the initiator reports the failure.
		if len(rec.reads) != 0 && !m.validateReads(rec, initiator) {
			m.releaseOwnerships(rec)
			return
		}
		m.agreeOldValues(rec)
		newv := m.newValuesFor(rec, initiator)
		// The commit's step (see CommitEpoch): Success is decided, so the
		// whole data set is owned by rec, and this participant has installed
		// nothing yet. Every participant steps before its own installs, so
		// the first step precedes the first install whoever performs it; the
		// repeats are harmless. A commit that changes no value installs
		// nothing and does not step. (One with a read list stepped in
		// validateReads, before its verdict and so before any install.)
		if len(rec.reads) == 0 && rec.changes(newv) {
			m.epoch.Add(1)
		}
		m.updateMemory(rec, newv, initiator)
		m.releaseOwnerships(rec)
		return
	}

	// Failure: release whatever this record did acquire, then help the
	// transaction that blocked us so its stall cannot block the system.
	m.releaseOwnerships(rec)
	if !initiator {
		return
	}
	helped := false
	idx := failureIndex(st)
	owner := m.peek(rec.addrs[idx]).owner.Load()
	if owner != nil && owner != rec && owner.pin() {
		if owner.stable.Load() {
			// Chaos injection: stall the failed initiator mid-helping,
			// after pinning its blocker but before executing the blocker's
			// protocol. The pin keeps the blocker's record from recycling
			// under the stall; the blocker itself is never delayed.
			if m.chaosOn.Load() != 0 {
				m.chaosFire(ChaosSTHelping, rec.addrs, -1)
			}
			m.stats.bump(rec.shard, cHelps)
			m.transaction(owner, false)
			helped = true
		}
		owner.unpin()
	}
	// Taxonomy input for the ST engine's failure path: whether this failed
	// attempt paid the cooperative-helping cost. Plain store — only the
	// initiating goroutine runs this branch or reads the field.
	rec.obsHelped = helped
}

// acquireOwnerships claims the record's data set in ascending address
// order. It returns when every word is owned by rec (leaving status Null
// for the caller to decide Success), or after CASing rec's status to
// Failure at the first word found owned by another record, or as soon as it
// observes a decided status (some other helper got further than us).
func (m *Memory) acquireOwnerships(rec *Rec) {
	for i, loc := range rec.addrs {
		w := m.word(loc)
		for {
			if rec.status.Load() != statusNull {
				return
			}
			owner := w.owner.Load()
			if owner == rec {
				break // already acquired (possibly by a helper)
			}
			if owner == nil {
				if w.owner.CompareAndSwap(nil, rec) {
					break
				}
				continue // lost the race; re-inspect the new owner
			}
			// The word is owned by another transaction: fail ourselves.
			// If the CAS loses, a helper decided our fate concurrently;
			// either way the status is now decided. The CAS winner — and
			// only the winner — charges the conflict to this word, so the
			// per-word counters tally exactly one conflict per failed
			// attempt.
			if rec.status.CompareAndSwap(statusNull, failureAt(i)) {
				w.conflicts.Add(1)
			}
			return
		}
	}
}

// validateReads settles the record's read list (SetReadSet): the step,
// then one verdict for every participant, which it reports as valid or
// stale. The order is the proof (DESIGN.md §9, "Commit: own the writes,
// validate the reads").
//
// Success is decided, so rec owns its whole data set — the words it
// writes — and keeps them until some participant has installed under the
// verdict this publishes, or released them under a stale one. The
// participant steps the epoch first. A step that returns sample+1 is the
// first since the reads were taken: every read-list word still holds its
// read value at the step, by the argument that admits a read on the fast
// path, and that instant — writes owned, reads current — is the commit's
// linearization point, found without a load. Only one step can return
// sample+1, which is what keeps two commits that each read what the other
// writes from both passing on it. Any other step is followed by the pass
// below, which looks at the words themselves.
//
// Whichever finishes first publishes its outcome with one CAS, and every
// participant — this one included, if it lost — adopts the published one:
// two passes at different instants can disagree, and the words must be
// installed under a single verdict or not at all. The pass is published
// whole because a pass is only evidence once its epoch check has passed;
// values it loaded before the check failed prove nothing. A participant
// that finds the verdict already settled neither steps nor validates.
func (m *Memory) validateReads(rec *Rec, initiator bool) bool {
	if v := rec.verdict.Load(); v != statusNull {
		return v == statusSuccess
	}
	e := m.epoch.Add(1)
	// Chaos injection: the write set is owned and the epoch stepped, and
	// the read list is not validated yet — a commit that lands on one of
	// its words now must be seen by the pass.
	if initiator && m.chaosOn.Load() != 0 {
		m.chaosFire(ChaosSTPostStep, rec.addrs, len(rec.addrs))
	}
	v := statusSuccess
	if e != rec.sample+1 {
		v = m.readPass(rec, e)
	}
	rec.verdict.CompareAndSwap(statusNull, v)
	return rec.verdict.Load() == statusSuccess
}

// readPass validates the read list with loads: each word must be unowned,
// or owned by rec itself, and hold its exp value, and the epoch must not
// move from e, a value it held before the first load, until after the last.
// Then every word held its exp value at the last load's instant: a commit
// that replaced an unowned one after it was loaded stepped either inside
// the pass, which the unchanged epoch rules out, or before it, and then it
// owned the word from before e until its install — across the instant the
// pass found the word unowned. A word rec owns — one it read and then wrote
// — nobody else can install over until rec releases it, and rec installs
// nothing before its verdict. A word another record owns is stale: its
// owner may have stepped already and be about to install. The pass never
// helps the owner — the owner may be validating in turn, with one of rec's
// writes among its reads, and helping would recurse — so a miss costs a
// re-execution, never a wait. A moved epoch proves nothing either way, and
// the pass starts over under the new value — unless another participant's
// verdict has landed meanwhile, which ends it; each restart means some
// commit stepped, so the system progresses. It returns statusSuccess or
// failureAt the first stale word.
func (m *Memory) readPass(rec *Rec, e uint64) int64 {
	for {
		for i, loc := range rec.reads {
			w := m.peek(loc)
			if o := w.owner.Load(); (o != nil && o != rec) || BoxVal(w.cell.Load()) != rec.exp[i] {
				return failureAt(i)
			}
		}
		now := m.epoch.Load()
		if now == e {
			return statusSuccess
		}
		if v := rec.verdict.Load(); v != statusNull {
			return v
		}
		e = now
	}
}

// zeroOld is the agreed old value of a word whose cell is still nil. A slot
// cannot hold nil itself, which means "not yet agreed". It is only ever
// stored in old-value slots, never installed in a cell.
var zeroOld = new(uint64)

// agreeOldValues fills the record's old-value slots from the owned memory
// words. Slots are set-once so all helpers agree on one snapshot: the first
// CAS to land fixes the value, and any helper that stalled across the
// update phase finds every slot already filled and writes nothing.
func (m *Memory) agreeOldValues(rec *Rec) {
	for i, loc := range rec.addrs {
		if rec.old[i].Load() == nil {
			box := m.peek(loc).cell.Load()
			if box == nil {
				box = zeroOld
			}
			rec.old[i].CompareAndSwap(nil, box)
		}
	}
}

// newValuesFor returns the transaction's computed new values, evaluating
// calc at most usefully-once (concurrent evaluations agree by contract).
// The initiating goroutine evaluates into the record's private buffers and
// publishes through the record's preallocated slice-header box; the first
// helper to claim the record's helper buffers does the same with those, and
// any further concurrent helper evaluates into fresh buffers of its own.
// Whichever publication CAS wins is the result every participant installs.
func (m *Memory) newValuesFor(rec *Rec, initiator bool) []uint64 {
	if p := rec.newVals.Load(); p != nil {
		return *p
	}
	k := len(rec.addrs)
	var old, nv []uint64
	var hdr *[]uint64
	switch {
	case initiator:
		old, nv, hdr = rec.oldBuf[:k], rec.newBuf[:k], rec.newHdr
	case rec.helpClaimed.CompareAndSwap(false, true):
		if cap(rec.helpOld) < k {
			rec.helpOld, rec.helpNew = make([]uint64, k), make([]uint64, k)
		}
		old, nv, hdr = rec.helpOld[:k], rec.helpNew[:k], rec.helpHdr
	default:
		old, nv, hdr = make([]uint64, k), make([]uint64, k), new([]uint64)
	}
	rec.snapshotInto(old)
	rec.calc(rec.env, old, nv, initiator)
	*hdr = nv
	rec.newVals.CompareAndSwap(nil, hdr)
	return *rec.newVals.Load()
}

// updateMemory installs the new values. Each store is a CAS on the boxed
// cell pointer, so a maximally stale helper — one that loaded the cell
// before the transaction completed and released — can never clobber a later
// transaction's write: the box it read has been replaced and its CAS fails.
// allWritten cuts the phase short once some participant finished it. A nil
// cell is replaced like any other box, and never restored: a 0 written over
// it is an equal-value write, which keeps it.
//
// The initiating goroutine carves value boxes from the record's backing
// chunk (one allocation amortized over boxChunk commits); helpers box
// individually.
func (m *Memory) updateMemory(rec *Rec, newv []uint64, initiator bool) {
	for i, loc := range rec.addrs {
		w := m.word(loc)
		for {
			cur := w.cell.Load()
			if rec.allWritten.Load() {
				return
			}
			if BoxVal(cur) == newv[i] {
				break // already installed (by us or a helper), or unchanged
			}
			var box *uint64
			if initiator {
				box = rec.carveBox()
			} else {
				box = new(uint64)
			}
			*box = newv[i]
			if w.cell.CompareAndSwap(cur, box) {
				if initiator {
					rec.commitBox()
				}
				break
			}
			// Lost to a helper installing the same value (or, if we are
			// stale, to a later transaction — the next allWritten or value
			// check will stop us). A carved box that lost its CAS was never
			// published and is simply rewritten on the next iteration.
		}
	}
	rec.allWritten.Store(true)
}

// releaseOwnerships returns every word still owned by rec to the free
// state. On the failure path words past the failing index were never
// acquired by us, but helpers may have acquired them for us, so the whole
// data set is scanned unconditionally.
func (m *Memory) releaseOwnerships(rec *Rec) {
	for _, loc := range rec.addrs {
		w := m.word(loc)
		if w.owner.Load() == rec {
			w.owner.CompareAndSwap(rec, nil)
		}
	}
}

// Owner reports the record currently owning loc, or nil. Exported for tests
// and diagnostics.
func (m *Memory) Owner(loc int) *Rec { return m.peek(loc).owner.Load() }
