package core

import (
	"runtime"
	"sync/atomic"
)

// The TL2/LSA-style engine: a global-version-clock protocol tuned for
// read-mostly workloads.
//
// Reads are invisible: an attempt samples a read version rv from the global
// clock and reads each data-set word with no ownership acquisition at all,
// accepting a word only if its version stamp is ≤ rv, it is unlocked, and
// the stamp is identical before and after the value load. A transaction
// whose computed new values equal its old values (an update that changes
// nothing, a store of the current values, a dynamic commit that writes back
// what it read) commits right there — zero atomic read-modify-writes, the
// path an ST attempt cannot offer because it must CAS ownership of every
// word in its data set.
//
// A dynamic commit's data set is only the words it writes; every word it
// read, written or not, arrives beside it as a read list (Rec.SetReadSet)
// with the commit epoch — this clock — sampled before they were read. The
// attempt never reads them again: after its clock step it checks each one
// unlocked (or locked by itself) and stamped at or below that sample S, and
// skips even that when its clock CAS moved S→S+1, which proves no commit
// intervened since the reads. A pure-read attempt checks the list unless
// the clock still reads S.
//
// Writes are lazy: new values are computed into the record's private buffer,
// and only the words whose value actually changes are locked (owner CAS, in
// ascending address order — the same deadlock-freedom argument as ST's
// acquire phase), validated, written back, and released. The write version
// wv comes from the clock via a GV4-style "pass on failure" step: one CAS
// attempt, and a loser adopts the winner's value instead of retrying — safe
// because both hold their commit locks before touching the clock, and it
// keeps the clock line from serializing concurrent commits into a CAS
// convoy. A commit whose CAS moved the clock rv→rv+1 proved no other commit
// intervened since its reads and skips validation entirely.
//
// The write-back order per word is stamp-then-install: version.Store(wv)
// strictly before cell.Store(box). A concurrent invisible reader that sees
// the new value therefore cannot see the old stamp (its post-read stamp
// check finds wv), and one that sees the old stamp with the new value is
// impossible; locks held across the whole install phase close the remaining
// window (see DESIGN.md §11 for the full opacity argument).
//
// What TL2 gives up is ST's helping: a preempted lock holder briefly blocks
// conflicting commits, which fail their attempts and back off before
// retrying rather than completing the blocker's work. The
// obstruction is bounded by the (short) lock→validate→write-back window,
// and StableLoadBox waits it out with a yield loop.

// tl2Engine implements Engine with the protocol above. The clock sits alone
// on its own cache line so commit traffic on it never false-shares with the
// memory pointer (or anything else).
type tl2Engine struct {
	m *Memory
	_ [cacheLineSize - 8]byte

	// clock is the global version clock: the serialization order of every
	// writing commit. It only moves by CAS from a just-loaded value, so it
	// is monotonic; readers sample it with a plain load.
	//
	// It is also the Memory's commit epoch (Memory.CommitEpoch). What that
	// needs of it — some step with all of a commit's write locks already
	// held and none of its write-backs done — holds because every clock
	// access that yields a wv happens between the lock phase and the
	// write-back: a commit either lands a CAS there itself or, adopting,
	// lost one there to somebody else's step. Only writing commits touch
	// the clock, and equal-value writes are not in the write set, so it
	// steps only when some word's committed value changes (or an attempt
	// steps and then fails validation, which is harmless).
	clock atomic.Uint64
	_     [cacheLineSize - 8]byte
}

func (e *tl2Engine) Kind() EngineKind { return EngineTL2 }

// Attempt executes one TL2 attempt: invisible versioned reads, calc, then —
// only if some word actually changes — lock, clock step, validate, write
// back, release.
func (e *tl2Engine) Attempt(rec *Rec, oldOut []uint64, info *ConflictInfo) bool {
	m := e.m
	k := len(rec.addrs)
	old := rec.oldBuf[:k]
	nv := rec.newBuf[:k]
	rv := e.clock.Load()
	lvl := m.obsLevel()

	// Invisible read phase: no ownership, no stores. A word is admitted
	// only if its stamp is ≤ rv, it is unlocked, and the stamp did not move
	// across the value load — writers stamp before installing, so a new
	// value can never slip in under an old stamp.
	for i, loc := range rec.addrs {
		w := m.peek(loc)
		v1 := w.version.Load()
		if w.owner.Load() != nil {
			return e.fail(rec, info, i, ReasonTL2Read)
		}
		val := BoxVal(w.cell.Load())
		if w.version.Load() != v1 || v1 > rv {
			return e.fail(rec, info, i, ReasonTL2Read)
		}
		old[i] = val
	}

	rec.calc(rec.env, old, nv, true)

	// Lazy write set: only words whose value changes are ever locked.
	wr := rec.writeSet(k)
	writes := 0
	for i := range old {
		wr[i] = nv[i] != old[i]
		if wr[i] {
			writes++
		}
	}
	if writes == 0 {
		// Pure read: every word held a version ≤ rv while unlocked, so the
		// snapshot is the committed state at the rv sample — serialize
		// there and commit without touching the clock or any lock. A read
		// list is current there too if the clock has not moved since its
		// sample; otherwise it is validated first.
		if len(rec.reads) != 0 && rv != rec.sample {
			if i := e.checkReads(rec); i >= 0 {
				return e.failRead(rec, info, i)
			}
		}
		if lvl != ObsOff {
			rec.obsWrites = 0
			m.stats.bump(rec.shard, cTL2ReadOnly)
		}
		if oldOut != nil {
			copy(oldOut, old)
		}
		return true
	}

	// Lock the write set in ascending address order.
	for i, loc := range rec.addrs {
		if !wr[i] {
			continue
		}
		w := m.word(loc)
		if !w.owner.CompareAndSwap(nil, rec) {
			e.release(rec, wr, i)
			return e.fail(rec, info, i, ReasonTL2Lock)
		}
	}
	if lvl != ObsOff {
		rec.obsWrites = writes
	}
	// Chaos injection: stall with the commit locks held, clock untouched.
	// Conflicting writers fail at their lock CAS and back off;
	// invisible readers of the locked words fail admission.
	if m.chaosOn.Load() != 0 {
		m.chaosFire(ChaosTL2PostLock, rec.addrs, writes)
	}

	// Clock step (GV4): one CAS; a loser adopts the winner's value rather
	// than retrying, which is safe because every participant holds its
	// locks before stepping the clock — any reader that samples the shared
	// wv afterwards finds all of their words still locked. Nothing may move
	// between the lock phase above and the write-back below that lets a
	// commit write back without a clock step landing (its own or, adopting,
	// the one its second CAS lost to) while it holds its locks: the
	// commit-epoch contract on clock depends on it.
	wv := rv + 1
	skipValidate := e.clock.CompareAndSwap(rv, wv)
	if !skipValidate {
		cur := e.clock.Load()
		adopted := false
		if e.clock.CompareAndSwap(cur, cur+1) {
			wv = cur + 1
		} else {
			wv = e.clock.Load()
			adopted = true
		}
		if lvl != ObsOff {
			m.stats.bump(rec.shard, cTL2ClockRace)
			if adopted {
				m.stats.bump(rec.shard, cTL2ClockAdopt)
			}
		}

		// Validate the snapshot against rv: read-only words must still be
		// unlocked at a stamp ≤ rv; write-set words (locked by us) must
		// not have been overwritten since our read. A clock step that
		// moved rv→rv+1 proved no commit intervened and skipped this.
		for i, loc := range rec.addrs {
			w := m.peek(loc)
			if wr[i] {
				if w.version.Load() > rv {
					e.release(rec, wr, k)
					return e.fail(rec, info, i, ReasonTL2Validate)
				}
				continue
			}
			// Owner check strictly before the version load: a conflicting
			// commit that locks after observing owner==nil here carries a
			// clock stamp that postdates our rv sample, so the version load
			// below sees wv > rv and rejects it. Loading version first would
			// let a full lock→stamp→install→release cycle slip between the
			// two loads and pass with a stale stamp ≤ rv.
			if owner := w.owner.Load(); owner != nil && owner != rec {
				e.release(rec, wr, k)
				return e.fail(rec, info, i, ReasonTL2Validate)
			}
			if w.version.Load() > rv {
				e.release(rec, wr, k)
				return e.fail(rec, info, i, ReasonTL2Validate)
			}
		}
	}

	// The read list is validated against its own sample S, not rv: the
	// caller read it before this attempt began, and a word overwritten
	// between S and rv carries a stamp ≤ rv. The skip is the same proof as
	// above, moved back to S: the CAS moved the clock S→S+1, so no commit
	// stepped since the list was read.
	if len(rec.reads) != 0 && !(skipValidate && rv == rec.sample) {
		if i := e.checkReads(rec); i >= 0 {
			e.release(rec, wr, k)
			return e.failRead(rec, info, i)
		}
	}

	// Chaos injection: stall between the GV4 clock step (and validation)
	// and the first write-back — the clock already carries wv but no word
	// is stamped or installed, so every concurrent reader serializes
	// before this commit while its locks obstruct the write set.
	if m.chaosOn.Load() != 0 {
		m.chaosFire(ChaosTL2PostClock, rec.addrs, writes)
	}

	// Write back: stamp wv, then install a fresh box — in that order, per
	// word — holding every lock until all installs land so no reader can
	// observe a partially installed write set through StableLoadBox.
	for i, loc := range rec.addrs {
		if !wr[i] {
			continue
		}
		w := m.word(loc)
		w.version.Store(wv)
		box := rec.carveBox()
		*box = nv[i]
		w.cell.Store(box)
		rec.commitBox()
	}
	e.release(rec, wr, k)

	if oldOut != nil {
		copy(oldOut, old)
	}
	return true
}

// release frees the write-set locks among the first upto data-set words.
func (e *tl2Engine) release(rec *Rec, wr []bool, upto int) {
	for i := 0; i < upto; i++ {
		if wr[i] {
			e.m.word(rec.addrs[i]).owner.CompareAndSwap(rec, nil)
		}
	}
}

// fail ends the attempt at data-set word idx (see Memory.failAttempt).
func (e *tl2Engine) fail(rec *Rec, info *ConflictInfo, idx int, reason AbortReason) bool {
	return e.m.failAttempt(rec, info, ConflictInfo{Index: idx, Addr: rec.addrs[idx]}, reason)
}

// failRead ends the attempt at read-list word i, found locked by another
// record or stamped past the sample.
func (e *tl2Engine) failRead(rec *Rec, info *ConflictInfo, i int) bool {
	return e.m.failAttempt(rec, info, ConflictInfo{Index: i, Addr: rec.reads[i], ReadStale: true}, ReasonTL2Validate)
}

// checkReads validates the read list against its sample S: every word must
// be unlocked, or locked by rec itself, and stamped ≤ S, loaded in that
// order, as in the write-set validation — a commit that locks a word after
// the owner load mints its stamp from a clock step after this attempt's
// own, and serializes after it. A word passing both held its read value
// from the caller's read until the version load: any install after that
// read carries a stamp > S, because its committer locked the word after the
// read found it unlocked, after the clock had reached S. A word rec locked
// — one it read and then writes — stays so until rec's own write-back, so
// its stamp check covers it up to the commit. It returns the first stale
// word's index, or -1.
func (e *tl2Engine) checkReads(rec *Rec) int {
	for i, loc := range rec.reads {
		w := e.m.peek(loc)
		if owner := w.owner.Load(); owner != nil && owner != rec {
			return i
		}
		if w.version.Load() > rec.sample {
			return i
		}
	}
	return -1
}

// StableLoadBox waits out the short commit-lock window instead of helping:
// TL2 owners finish on their own, and the yield loop keeps the waiter off
// the contended line. The cell double-check around the owner inspection is
// the same argument as the ST engine's: published boxes are never reused,
// so cell==box on both sides of an unlocked observation means the box was
// the word's committed value throughout.
func (e *tl2Engine) StableLoadBox(loc int) *uint64 {
	w := e.m.peek(loc)
	for {
		box := w.cell.Load()
		if w.owner.Load() == nil && w.cell.Load() == box {
			return box
		}
		runtime.Gosched()
	}
}
