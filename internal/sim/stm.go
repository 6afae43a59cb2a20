package sim

import (
	"errors"
	"fmt"
	"sort"
)

// OpFunc computes new values from old ones and two immediate arguments:
// a transaction's data set for STM, the whole object for Herlihy.
// Implementations must be deterministic, side-effect free, and TOTAL: a
// maximally stale helper or copier can invoke them with garbage inputs (its
// results are then discarded by version guards or a failed
// store-conditional), so they must not panic on any input. The result must
// have len(old) elements.
type OpFunc func(arg, arg2 uint64, old []uint64) []uint64

// calcCost is the Think cycles a protocol charges per word it computes a
// new value for: the transaction body, or the object update.
const calcCost = 2

// STM memory layout. An instance occupies simulated memory from word 0:
//
//	0 ........... D-1           data words (the transactional memory)
//	D ........... 2D-1          ownership words, one per data word
//	2D .......... 2D+P*R-1      transaction records, R words per processor
//
// A record's R = recHeaderWords + 2*MaxK words are laid out as:
//
//	+0 version     monotonically increasing per attempt (owner-written)
//	+1 status      0 = Null, 1 = Success, 2|i<<2 = Failure at data-set index i
//	+2 allWritten  1 once the update phase completed
//	+3 stable      1 while the owner is inside its attempt loop
//	+4 size        number of words in the data set (≤ MaxK)
//	+5 opcode      index into the instance's registered OpFuncs
//	+6 oparg       first immediate argument passed to the op function
//	+7 oparg2      second immediate argument passed to the op function
//	+8 … +8+K-1        addrs: data-word indices
//	+8+K … +8+2K-1     old values; emptyOld means "not yet agreed"
const (
	offVersion     = 0
	offStatus      = 1
	offAllWritten  = 2
	offStable      = 3
	offSize        = 4
	offOpcode      = 5
	offOpArg       = 6
	offOpArg2      = 7
	recHeaderWords = 8
)

// Status word values.
const (
	statusNull    uint64 = 0
	statusSuccess uint64 = 1
	statusFailBit uint64 = 2
)

func failureAt(idx int) uint64 { return statusFailBit | uint64(idx)<<2 }

func isFailure(st uint64) bool { return st&3 == statusFailBit }

func failureIndex(st uint64) int { return int(st >> 2) }

// emptyOld is the in-band "old value not yet agreed" marker. Data words
// must never hold this value; NewSTM's op registry is documented
// accordingly. (The paper uses pointer/nil for the same purpose.)
const emptyOld = ^uint64(0)

// Ownership words pack (record base, version) so that stale claims are
// distinguishable from live ones: base in the high 32 bits, the low 32
// bits of the claiming attempt's version below. 0 means unowned, which is
// unambiguous because record bases are strictly positive (the data region
// precedes the record region and is non-empty).
const ownVersionMask = (1 << 32) - 1

func packOwner(recBase int, version uint64) uint64 {
	return uint64(recBase)<<32 | (version & ownVersionMask)
}

func unpackOwner(w uint64) (recBase int, version32 uint64) {
	return int(w >> 32), w & ownVersionMask
}

// Variant selects protocol ablations for experiment F6. The zero value is
// the paper's protocol (helping on, sorted acquisition).
type Variant struct {
	// NoHelping disables cooperative helping: a blocked transaction just
	// fails and retries after backoff.
	NoHelping bool
	// Unsorted acquires ownerships in the caller-supplied order instead of
	// increasing address order, forfeiting the paper's progress guarantee.
	Unsorted bool
}

// STMConfig describes an STM instance inside a simulated machine.
type STMConfig struct {
	// Procs must equal the machine's processor count.
	Procs int
	// DataWords is the size of the transactional memory.
	DataWords int
	// MaxK is the largest data-set size any transaction will use.
	MaxK int
	// Ops registers the op functions transactions can invoke by opcode.
	Ops []OpFunc
	// Variant selects ablations; zero value = the paper's protocol.
	Variant Variant
}

// Stats counts one protocol instance's outcomes over a run. Helps and
// Heals are STM's alone.
type Stats struct {
	Attempts int64
	Commits  int64
	Failures int64
	Helps    int64
	Heals    int64 // stale ownership words freed
}

// maxBackoff caps the protocols' retry backoff, in cycles.
const maxBackoff = 8192

// STM is one transactional-memory instance placed in a simulated machine's
// memory. Create with NewSTM, then have each simulated processor call Run.
// The instance itself holds only immutable layout plus counters; all shared
// protocol state lives in simulated memory. The machine runs one processor
// at a time, so the counters need no locking.
type STM struct {
	cfg      STMConfig
	recWords int
	stats    Stats
	latency  []float64 // commit latencies in cycles (Run entry → commit)
}

// NewSTM validates cfg and returns an instance. The caller must size the
// machine's memory to cover [0, Words()).
func NewSTM(cfg STMConfig) (*STM, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("sim: Procs must be ≥ 1, got %d", cfg.Procs)
	}
	if cfg.DataWords < 1 {
		return nil, fmt.Errorf("sim: DataWords must be ≥ 1, got %d", cfg.DataWords)
	}
	if cfg.MaxK < 1 || cfg.MaxK > cfg.DataWords {
		return nil, fmt.Errorf("sim: MaxK must be in [1,%d], got %d", cfg.DataWords, cfg.MaxK)
	}
	if len(cfg.Ops) == 0 {
		return nil, errors.New("sim: at least one OpFunc is required")
	}
	return &STM{cfg: cfg, recWords: recHeaderWords + 2*cfg.MaxK}, nil
}

// Words returns the total simulated-memory footprint of the instance.
func (s *STM) Words() int {
	return 2*s.cfg.DataWords + s.cfg.Procs*s.recWords
}

// ownAddr is data word i's ownership word; data word i itself is at
// address i.
func (s *STM) ownAddr(i int) int { return s.cfg.DataWords + i }

func (s *STM) recBase(proc int) int {
	return 2*s.cfg.DataWords + proc*s.recWords
}

// Stats returns the instance's counters. Call only after the machine run
// completes.
func (s *STM) Stats() Stats { return s.stats }

// Latencies returns every commit's latency in cycles, from Run entry to
// commit, including failed attempts and backoff. Call after the machine run
// completes.
func (s *STM) Latencies() []float64 { return s.latency }

// Run executes one static transaction on processor p, retrying with
// exponential backoff until it commits: StartTransaction in the paper.
// addrs are data-word indices (deduplicated by the caller); opcode selects
// a registered OpFunc, which receives arg and arg2. It returns the agreed old
// values, index-aligned with addrs as passed.
func (s *STM) Run(p *Proc, addrs []int, opcode int, arg, arg2 uint64) []uint64 {
	if len(addrs) == 0 || len(addrs) > s.cfg.MaxK {
		panic(fmt.Sprintf("sim: data set size %d outside [1,%d]", len(addrs), s.cfg.MaxK))
	}
	if opcode < 0 || opcode >= len(s.cfg.Ops) {
		panic(fmt.Sprintf("sim: opcode %d outside [0,%d)", opcode, len(s.cfg.Ops)))
	}

	// Engine order: ascending addresses unless the Unsorted ablation.
	order := make([]int, len(addrs))
	copy(order, addrs)
	if !s.cfg.Variant.Unsorted {
		sort.Ints(order)
	}
	// perm[i] = engine index of caller's addrs[i].
	perm := make([]int, len(addrs))
	for i, a := range addrs {
		for j, b := range order {
			if b == a {
				perm[i] = j
				break
			}
		}
	}

	rb := s.recBase(p.ID())
	started := p.Now()

	// Write the attempt-invariant record fields once per Run.
	p.Write(rb+offSize, uint64(len(order)))
	p.Write(rb+offOpcode, uint64(opcode))
	p.Write(rb+offOpArg, arg)
	p.Write(rb+offOpArg2, arg2)
	for i, a := range order {
		p.Write(rb+recHeaderWords+i, uint64(a))
	}

	bo := newBackoff(maxBackoff)
	for {
		// Initialize the attempt: bump version, clear decision state,
		// blank the old-value slots, then declare the record stable.
		version := p.Read(rb+offVersion) + 1
		p.Write(rb+offVersion, version)
		p.Write(rb+offStatus, statusNull)
		p.Write(rb+offAllWritten, 0)
		for i := range order {
			p.Write(rb+recHeaderWords+s.cfg.MaxK+i, emptyOld)
		}
		p.Write(rb+offStable, 1)

		s.stats.Attempts++
		s.transaction(p, rb, version, order, true)

		st := p.Read(rb + offStatus)
		p.Write(rb+offStable, 0)

		if st == statusSuccess {
			s.stats.Commits++
			s.latency = append(s.latency, float64(p.Now()-started))
			// Read back the agreed snapshot (charged, like any consumer of
			// the transaction's result) and undo the sort permutation.
			oldSorted := make([]uint64, len(order))
			for i := range order {
				oldSorted[i] = p.Read(rb + recHeaderWords + s.cfg.MaxK + i)
			}
			old := make([]uint64, len(addrs))
			for i := range addrs {
				old[i] = oldSorted[perm[i]]
			}
			return old
		}

		s.stats.Failures++
		bo.wait(p)
	}
}

// transaction drives the record at rb (attempt `version`) from any phase to
// completion. addrsHint carries the initiator's locally-known engine-order
// data set; helpers pass nil and read the data set from shared memory under
// version guards.
func (s *STM) transaction(p *Proc, rb int, version uint64, addrsHint []int, initiator bool) {
	addrs := addrsHint
	if addrs == nil {
		size := int(p.Read(rb + offSize))
		if size < 1 || size > s.cfg.MaxK {
			return // torn read of a recycled record; nothing to do
		}
		if p.Read(rb+offVersion) != version {
			return
		}
		addrs = make([]int, size)
		for i := 0; i < size; i++ {
			a := int(p.Read(rb + recHeaderWords + i))
			if a < 0 || a >= s.cfg.DataWords {
				return // torn read; version guard will also fire on stores
			}
			addrs[i] = a
		}
	}

	s.acquireOwnerships(p, rb, version, addrs)

	st := p.LL(rb + offStatus)
	if st == statusNull {
		if p.Read(rb+offVersion) != version {
			return
		}
		p.SC(rb+offStatus, statusSuccess)
		st = p.Read(rb + offStatus)
	}

	if st == statusSuccess {
		s.agreeOldValues(p, rb, version, addrs)
		newv := s.calcNewValues(p, rb, version, addrs)
		s.updateMemory(p, rb, version, addrs, newv)
		s.releaseOwnerships(p, rb, version, addrs)
		return
	}

	s.releaseOwnerships(p, rb, version, addrs)

	if !initiator || s.cfg.Variant.NoHelping || !isFailure(st) {
		return
	}
	// Non-redundant helping: complete the transaction that blocked us, but
	// never recurse (the helpee's own conflicts are its initiator's job).
	idx := failureIndex(st)
	if idx < 0 || idx >= len(addrs) {
		return
	}
	owner := p.Read(s.ownAddr(addrs[idx]))
	if owner == 0 {
		return
	}
	orb, over32 := unpackOwner(owner)
	if orb == rb {
		return
	}
	fullVer := p.Read(orb + offVersion)
	if fullVer&ownVersionMask != over32 {
		return // the claim is stale; the acquire path will heal it
	}
	if p.Read(orb+offStable) != 1 {
		return
	}
	s.stats.Helps++
	s.transaction(p, orb, fullVer, nil, false)
}

// acquireOwnerships claims the data set in engine order. It leaves the
// record's status Null when every word is claimed, or CASes it to Failure
// at the first index blocked by a live claim. Stale claims (version
// mismatch: their attempt already decided) are healed in place.
func (s *STM) acquireOwnerships(p *Proc, rb int, version uint64, addrs []int) {
	want := packOwner(rb, version)
	for i, loc := range addrs {
		ownAddr := s.ownAddr(loc)
		for {
			if p.Read(rb+offStatus) != statusNull {
				return
			}
			owner := p.LL(ownAddr)
			if p.Read(rb+offVersion) != version {
				return
			}
			if owner == want {
				break // already claimed (possibly by a helper)
			}
			if owner == 0 {
				if p.SC(ownAddr, want) {
					break
				}
				continue // lost the race; re-inspect
			}
			orb, over32 := unpackOwner(owner)
			if orb == rb || p.Read(orb+offVersion)&ownVersionMask != over32 {
				// A stale claim: by our own earlier attempt, or by another
				// record's decided attempt. Free it and retry. Safe because
				// a version bump happens only after the attempt decided and
				// ran its release phase.
				if p.SC(ownAddr, 0) {
					s.stats.Heals++
				}
				continue
			}
			// Live conflicting claim: fail ourselves at index i.
			stw := p.LL(rb + offStatus)
			if stw == statusNull && p.Read(rb+offVersion) == version {
				p.SC(rb+offStatus, failureAt(i))
			}
			return
		}
	}
}

// agreeOldValues fills the record's old-value slots from the claimed data
// words, set-once via LL/SC so every helper agrees on one snapshot.
func (s *STM) agreeOldValues(p *Proc, rb int, version uint64, addrs []int) {
	for i, loc := range addrs {
		slot := rb + recHeaderWords + s.cfg.MaxK + i
		if p.LL(slot) != emptyOld {
			continue
		}
		if p.Read(rb+offVersion) != version {
			return
		}
		v := p.Read(loc)
		p.SC(slot, v) // failure means another helper agreed first
	}
}

// calcNewValues reads the agreed snapshot and computes the new values,
// charging calcCost cycles per word for the transaction body.
func (s *STM) calcNewValues(p *Proc, rb int, version uint64, addrs []int) []uint64 {
	old := make([]uint64, len(addrs))
	for i := range addrs {
		old[i] = p.Read(rb + recHeaderWords + s.cfg.MaxK + i)
	}
	opcode := int(p.Read(rb + offOpcode))
	arg := p.Read(rb + offOpArg)
	arg2 := p.Read(rb + offOpArg2)
	if opcode < 0 || opcode >= len(s.cfg.Ops) {
		return old // torn read on a recycled record; guards discard stores
	}
	if p.Read(rb+offVersion) != version {
		return old
	}
	p.Think(calcCost * int64(len(addrs)))
	newv := s.cfg.Ops[opcode](arg, arg2, old)
	if len(newv) != len(addrs) {
		return old // defensive: treat a misbehaving op as identity
	}
	return newv
}

// updateMemory installs the new values under LL/SC and version guards, then
// raises allWritten to cut lagging helpers short.
func (s *STM) updateMemory(p *Proc, rb int, version uint64, addrs []int, newv []uint64) {
	for i, loc := range addrs {
		for {
			cur := p.LL(loc)
			if p.Read(rb+offAllWritten) == 1 {
				return
			}
			if p.Read(rb+offVersion) != version {
				return
			}
			if cur == newv[i] {
				break
			}
			if p.SC(loc, newv[i]) {
				break
			}
			// SC lost to a helper writing the same value (or our claim is
			// gone; the guards above stop us next iteration).
		}
	}
	if p.LL(rb+offAllWritten) == 0 {
		if p.Read(rb+offVersion) != version {
			return
		}
		p.SC(rb+offAllWritten, 1)
	}
}

// releaseOwnerships frees every data word still claimed by this exact
// attempt (record base AND version), scanning the whole data set because
// helpers may have claimed words the failing path never reached.
func (s *STM) releaseOwnerships(p *Proc, rb int, version uint64, addrs []int) {
	mine := packOwner(rb, version)
	for _, loc := range addrs {
		ownAddr := s.ownAddr(loc)
		if p.LL(ownAddr) == mine {
			p.SC(ownAddr, 0)
		}
	}
}
