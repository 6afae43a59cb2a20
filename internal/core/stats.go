package core

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// statShards spreads the protocol counters across independent cache lines.
// Every attempt bumps attempts and then commits or failures; with a single
// counter set those lines become the most contended memory in the engine.
// Each record is bound to one shard for its lifetime (pool reuse keeps the
// binding, so a record that stays on one P keeps hitting the same line).
const statShards = 8

// statLine is one shard of counters, padded to whole cache lines so shards
// never false-share. The first four counters are the always-on protocol
// counters; the taxonomy block below them is bumped only at engine failure
// sites and the TL2 read-only/clock paths, and only while the observability
// level is ObsCounters or above.
type statLine struct {
	attempts atomic.Uint64
	commits  atomic.Uint64
	failures atomic.Uint64
	helps    atomic.Uint64

	// Abort taxonomy, indexed by AbortReason (reasons[ReasonNone] is
	// unused). Striped like the protocol counters: a failed attempt bumps
	// exactly one entry, on its record's shard.
	reasons [6]atomic.Uint64

	// TL2 protocol telemetry (obs-gated, commit path).
	tl2ReadOnly   atomic.Uint64 // commits with an empty write set (zero RMW)
	tl2ClockRace  atomic.Uint64 // commits whose first clock CAS lost (GV4 slow path)
	tl2ClockAdopt atomic.Uint64 // commits that adopted another commit's clock value

	// Dynamic-transaction snapshot extensions (always on; see
	// NoteSnapshotExtensions): how often a speculation found the commit
	// epoch moved and re-checked its read set, how many logged reads those
	// re-checks covered, and how many of them found a read stale.
	snapExtensions atomic.Uint64
	snapRechecked  atomic.Uint64
	snapStale      atomic.Uint64

	// Dynamic transactions that committed with no engine attempt because
	// they wrote nothing (always on, folded in with the snapshot tally).
	readOnlyCommits atomic.Uint64

	// traceSeq drives ObsTrace sampling (1-in-SampleEvery per shard); it is
	// bookkeeping, not a published counter.
	traceSeq atomic.Uint64

	_ [(cacheLineSize - 18*8%cacheLineSize) % cacheLineSize]byte
}

// reason charges one failed attempt to its taxonomy entry.
func (l *statLine) reason(r AbortReason) {
	if r != ReasonNone {
		l.reasons[r].Add(1)
	}
}

// HistBins is the number of log-scaled histogram bins. Bin 0 holds the
// value 0; bin i (1 ≤ i < HistBins-1) holds values in [2^(i-1), 2^i); the
// last bin holds everything from 2^(HistBins-2) up.
const HistBins = 16

// HistBucket maps a value to its log-scaled bin — the binning every
// HistogramSnapshot in this module shares. External histogram producers
// (the stmserve per-command metrics) use it so their distributions line up
// bin-for-bin with the engine's.
func HistBucket(v uint64) int { return histBucket(v) }

// histBucket maps a value to its log-scaled bin.
func histBucket(v uint64) int {
	if v == 0 {
		return 0
	}
	b := bits.Len64(v)
	if b > HistBins-1 {
		b = HistBins - 1
	}
	return b
}

// histLine is one shard of the four attempt histograms. Histogram bumps are
// striped by the record's stats shard like the counters; within a shard the
// bins share cache lines, which is fine — one shard is written from (at
// steady state) one P.
type histLine struct {
	commitTicks [HistBins]atomic.Uint64
	abortTicks  [HistBins]atomic.Uint64
	readSet     [HistBins]atomic.Uint64
	writeSet    [HistBins]atomic.Uint64
}

// Stats accumulates protocol counters and histograms, sharded and
// cache-line padded. All updates are atomic; the zero value is ready to
// use.
type Stats struct {
	shards [statShards]statLine
	hists  [statShards]histLine
}

func (s *Stats) attempt(shard int) { s.shards[shard].attempts.Add(1) }

// reset zeroes every shard — protocol counters, abort taxonomy, TL2
// telemetry, and all histogram bins — in one sweep. The sweep is not
// atomic across fields or shards: see StatsSnapshot's torn-window
// contract.
func (s *Stats) reset() {
	for i := range s.shards {
		l := &s.shards[i]
		l.attempts.Store(0)
		l.commits.Store(0)
		l.failures.Store(0)
		l.helps.Store(0)
		for r := range l.reasons {
			l.reasons[r].Store(0)
		}
		l.tl2ReadOnly.Store(0)
		l.tl2ClockRace.Store(0)
		l.tl2ClockAdopt.Store(0)
		l.snapExtensions.Store(0)
		l.snapRechecked.Store(0)
		l.snapStale.Store(0)
		l.readOnlyCommits.Store(0)
		h := &s.hists[i]
		for b := 0; b < HistBins; b++ {
			h.commitTicks[b].Store(0)
			h.abortTicks[b].Store(0)
			h.readSet[b].Store(0)
			h.writeSet[b].Store(0)
		}
	}
}

func (s *Stats) commit(shard int)  { s.shards[shard].commits.Add(1) }
func (s *Stats) failure(shard int) { s.shards[shard].failures.Add(1) }
func (s *Stats) help(shard int)    { s.shards[shard].helps.Add(1) }

// StatShard draws a stats shard for a long-lived reporter outside the engine
// — a pooled dynamic-transaction handle — the way Begin binds one to each
// record.
func StatShard() int { return int(recSeq.Add(1) % statShards) }

// NoteSnapshotExtensions folds one dynamic operation's tally — its snapshot
// extensions (StatsSnapshot.SnapshotExtensions/SnapshotRechecked/
// SnapshotStale) and whether it committed read-only (ReadOnlyCommits) — into
// shard, a value StatShard returned. The caller counts locally while it
// speculates and reports once per operation, and only what is non-zero: a
// writing transaction no commit overlaps performs no atomic for this, a
// read-only one exactly one.
func (m *Memory) NoteSnapshotExtensions(shard int, n, rechecked, stale, readOnly uint64) {
	l := &m.stats.shards[shard]
	if n != 0 {
		l.snapExtensions.Add(n)
		l.snapRechecked.Add(rechecked)
	}
	if stale != 0 {
		l.snapStale.Add(stale)
	}
	if readOnly != 0 {
		l.readOnlyCommits.Add(readOnly)
	}
}

// HistogramSnapshot is a point-in-time copy of one log-binned histogram,
// merged across shards. Counts[0] holds the value 0 (for tick histograms:
// "completed in under one tick"); Counts[i] holds [2^(i-1), 2^i); the last
// bin is open-ended.
type HistogramSnapshot struct {
	Counts [HistBins]uint64
}

// Total returns the number of recorded observations.
func (h HistogramSnapshot) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BucketBounds returns bin i's half-open value range [lo, hi). The last
// bin's hi is ^uint64(0).
func (h HistogramSnapshot) BucketBounds(i int) (lo, hi uint64) {
	switch {
	case i == 0:
		return 0, 1
	case i < HistBins-1:
		return 1 << (i - 1), 1 << i
	default:
		return 1 << (HistBins - 2), ^uint64(0)
	}
}

// String renders the non-empty bins compactly, e.g. "[0]:412 [1,2):7".
func (h HistogramSnapshot) String() string {
	var sb strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.BucketBounds(i)
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		switch {
		case i == 0:
			fmt.Fprintf(&sb, "[0]:%d", c)
		case i == HistBins-1:
			fmt.Fprintf(&sb, "[%d,+):%d", lo, c)
		default:
			fmt.Fprintf(&sb, "[%d,%d):%d", lo, hi, c)
		}
	}
	if sb.Len() == 0 {
		return "(empty)"
	}
	return sb.String()
}

// StatsSnapshot is a point-in-time copy of a Memory's protocol counters,
// abort taxonomy, and histograms.
//
// Torn-window contract: the snapshot (like ResetStats's sweep) reads each
// shard and field independently while transactions keep running, so the
// numbers are advisory and need not be mutually consistent — Commits +
// Failures may briefly disagree with Attempts by the number of attempts in
// flight, a reset racing a snapshot may zero some fields of the window and
// not others, and taxonomy entries may lead or trail the Failures total.
// Within one quiescent window every counter is exact, and counters are
// monotone non-decreasing between resets.
//
// Per-engine semantics: the four protocol counters are maintained by both
// engines, but Helps is ST-only — helping is the ST protocol's liveness
// mechanism, and the TL2 engine (whose committers briefly lock instead of
// being helped) never bumps it, so on a TL2 Memory it is always 0. The
// taxonomy blocks are engine-specific by construction: ST attempts only
// charge ST reasons, TL2 attempts only TL2 ones. Taxonomy and TL2 telemetry
// counters are populated only while the observability level is ObsCounters
// or above (Memory.Observe); histograms only at ObsHistograms or above.
type StatsSnapshot struct {
	// Attempts counts protocol attempts (RunAttempt calls).
	Attempts uint64
	// Commits counts attempts whose status was decided Success. It counts
	// engine attempts, not operations: a dynamic transaction that wrote
	// nothing commits without one and shows in ReadOnlyCommits instead, and
	// one whose commit-time validation failed adds a Commit (the no-op arm)
	// for every re-execution.
	Commits uint64
	// Failures counts attempts whose status was decided Failure; each such
	// attempt triggered at most one help.
	Failures uint64
	// Helps counts times an initiator executed another transaction's
	// protocol on its behalf (non-redundant helping). ST-only: always 0 on
	// a TL2 Memory.
	Helps uint64

	// ST abort taxonomy (ObsCounters+): STConflictAborts are ownership
	// conflicts whose blocker needed no help; STHelpedAborts additionally
	// executed the blocker's protocol. The two partition ST failures.
	STConflictAborts uint64
	STHelpedAborts   uint64

	// TL2 abort taxonomy (ObsCounters+): read-phase admission failures,
	// write-lock acquisition failures, and post-lock validation failures.
	// The three partition TL2 failures.
	TL2ReadAborts     uint64
	TL2LockAborts     uint64
	TL2ValidateAborts uint64

	// TL2 protocol telemetry (ObsCounters+). TL2ReadOnlyCommits counts
	// engine attempts that committed with an empty write set — the zero-RMW
	// fast path. Those are the static read-only forms only (Var.Load,
	// ReadAllInto, a stmds Map.Len): a read-only dynamic transaction makes
	// no attempt at all and is counted by ReadOnlyCommits.
	// TL2ClockRaces counts writing commits whose first global-clock CAS
	// lost to a concurrent commit (the GV4 slow path); TL2ClockAdoptions
	// counts the subset that then adopted another commit's clock value
	// instead of installing their own.
	TL2ReadOnlyCommits uint64
	TL2ClockRaces      uint64
	TL2ClockAdoptions  uint64

	// Dynamic-transaction snapshot telemetry (always on, both engines). A
	// speculative read is admitted in O(1) while the Memory's commit epoch
	// has not moved since the speculation's sample; when it has, the
	// speculation extends its snapshot by re-checking every read logged so
	// far. SnapshotExtensions counts those extensions, whether they passed
	// or sent the function back to re-execute; SnapshotRechecked counts the
	// logged reads they re-checked; SnapshotStale counts the extensions
	// that found a logged read replaced and unwound the execution — a
	// re-execution no engine attempt ever sees, so the only place it shows.
	// A dynamic transaction that no value-changing commit overlaps adds
	// nothing to any of them, however many words it reads — which is the
	// per-read cost claim of DESIGN.md §9, pinned without a timer.
	SnapshotExtensions uint64
	SnapshotRechecked  uint64
	SnapshotStale      uint64

	// ReadOnlyCommits counts dynamic transactions (Atomically, OrElse and
	// everything built on them) that committed having written nothing
	// (always on, both engines). Such a transaction is committed when its
	// speculation ends — every read it logged was current at one instant
	// inside the call, DESIGN.md §9 — so it makes no engine attempt and
	// none of the four protocol counters sees it: operations committed is
	// this plus the engine commits that installed something.
	ReadOnlyCommits uint64

	// Attempt histograms (ObsHistograms+), merged across shards.
	// CommitTicks/AbortTicks are attempt durations in coarse ticks (see
	// the ticks precision contract: one tick is nominally TickInterval,
	// and sub-tick attempts land in bin 0). ReadSetSize/WriteSetSize are
	// data-set and write-set sizes in words, recorded per finished
	// attempt.
	CommitTicks  HistogramSnapshot
	AbortTicks   HistogramSnapshot
	ReadSetSize  HistogramSnapshot
	WriteSetSize HistogramSnapshot
}

func (s *Stats) snapshot() StatsSnapshot {
	var out StatsSnapshot
	for i := range s.shards {
		l := &s.shards[i]
		out.Attempts += l.attempts.Load()
		out.Commits += l.commits.Load()
		out.Failures += l.failures.Load()
		out.Helps += l.helps.Load()
		out.STConflictAborts += l.reasons[ReasonSTConflict].Load()
		out.STHelpedAborts += l.reasons[ReasonSTHelped].Load()
		out.TL2ReadAborts += l.reasons[ReasonTL2Read].Load()
		out.TL2LockAborts += l.reasons[ReasonTL2Lock].Load()
		out.TL2ValidateAborts += l.reasons[ReasonTL2Validate].Load()
		out.TL2ReadOnlyCommits += l.tl2ReadOnly.Load()
		out.TL2ClockRaces += l.tl2ClockRace.Load()
		out.TL2ClockAdoptions += l.tl2ClockAdopt.Load()
		out.SnapshotExtensions += l.snapExtensions.Load()
		out.SnapshotRechecked += l.snapRechecked.Load()
		out.SnapshotStale += l.snapStale.Load()
		out.ReadOnlyCommits += l.readOnlyCommits.Load()
		h := &s.hists[i]
		for b := 0; b < HistBins; b++ {
			out.CommitTicks.Counts[b] += h.commitTicks[b].Load()
			out.AbortTicks.Counts[b] += h.abortTicks[b].Load()
			out.ReadSetSize.Counts[b] += h.readSet[b].Load()
			out.WriteSetSize.Counts[b] += h.writeSet[b].Load()
		}
	}
	return out
}

// FailureRate returns failures per attempt, or 0 for no attempts.
func (s StatsSnapshot) FailureRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Failures) / float64(s.Attempts)
}
