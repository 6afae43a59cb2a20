package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
)

// statShards spreads the protocol counters across independent cache lines.
// Every attempt bumps attempts and then commits or failures; with a single
// counter set those lines become the most contended memory in the engine.
// Each record is bound to one shard for its lifetime (pool reuse keeps the
// binding, so a record that stays on one P keeps hitting the same line).
const statShards = 8

// counter indexes a statLine's counters and counterTable. Adding a counter
// takes a constant here, its counterTable row, its StatsSnapshot field, and
// its increment site; every exporter walks the table.
type counter uint8

const (
	// The four protocol counters (always on).
	cAttempts counter = iota
	cCommits
	cFailures
	cHelps
	// The abort taxonomy (ObsCounters+), in AbortReason order: reason r is
	// counted by cHelps+r (statLine.reason).
	cAbortSTConflict
	cAbortSTHelped
	cAbortSTValidate
	cAbortTL2Read
	cAbortTL2Lock
	cAbortTL2Validate
	// TL2 protocol telemetry (ObsCounters+, commit path).
	cTL2ReadOnly
	cTL2ClockRace
	cTL2ClockAdopt
	// The dynamic-transaction tally (always on; NoteSnapshotExtensions).
	cSnapExtensions
	cSnapRechecked
	cSnapStale
	cReadOnlyCommits
	// ST ownership (always on, commit path).
	cOwnedWords
	nCounters
)

// hist indexes a statLine's histograms and histTable.
type hist uint8

const (
	hCommitNanos hist = iota
	hAbortNanos
	hReadSet
	hWriteSet
	nHists
)

// Engine masks for CounterDef: which engines maintain a counter.
const (
	onST   = 1 << EngineST
	onTL2  = 1 << EngineTL2
	onBoth = onST | onTL2
)

// CounterDef is one row of the counter table: a StatsSnapshot counter, the
// engines that maintain it, and the stable key every exporter derives its
// names from (stmobs.StatsMap and the simulation JSONL record use the key
// as is; the Prometheus export derives stm_<key>_total from it).
type CounterDef struct {
	// Key is the counter's export key, e.g. "attempts", "aborts_st_conflict".
	Key string
	// Reason is the abort taxonomy entry the counter tallies, or ReasonNone
	// for a counter outside the taxonomy.
	Reason  AbortReason
	engines uint8
	field   func(*StatsSnapshot) *uint64
}

// Value returns the counter's value in s.
func (c CounterDef) Value(s *StatsSnapshot) uint64 { return *c.field(s) }

var counterTable = [nCounters]CounterDef{
	cAttempts:         {"attempts", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.Attempts }},
	cCommits:          {"commits", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.Commits }},
	cFailures:         {"failures", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.Failures }},
	cHelps:            {"helps", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.Helps }},
	cAbortSTConflict:  {"aborts_st_conflict", ReasonSTConflict, onST, func(s *StatsSnapshot) *uint64 { return &s.STConflictAborts }},
	cAbortSTHelped:    {"aborts_st_helped", ReasonSTHelped, onST, func(s *StatsSnapshot) *uint64 { return &s.STHelpedAborts }},
	cAbortSTValidate:  {"aborts_st_validate", ReasonSTValidate, onST, func(s *StatsSnapshot) *uint64 { return &s.STValidateAborts }},
	cAbortTL2Read:     {"aborts_tl2_read", ReasonTL2Read, onTL2, func(s *StatsSnapshot) *uint64 { return &s.TL2ReadAborts }},
	cAbortTL2Lock:     {"aborts_tl2_lock", ReasonTL2Lock, onTL2, func(s *StatsSnapshot) *uint64 { return &s.TL2LockAborts }},
	cAbortTL2Validate: {"aborts_tl2_validate", ReasonTL2Validate, onTL2, func(s *StatsSnapshot) *uint64 { return &s.TL2ValidateAborts }},
	cTL2ReadOnly:      {"tl2_read_only_commits", ReasonNone, onTL2, func(s *StatsSnapshot) *uint64 { return &s.TL2ReadOnlyCommits }},
	cTL2ClockRace:     {"tl2_clock_races", ReasonNone, onTL2, func(s *StatsSnapshot) *uint64 { return &s.TL2ClockRaces }},
	cTL2ClockAdopt:    {"tl2_clock_adoptions", ReasonNone, onTL2, func(s *StatsSnapshot) *uint64 { return &s.TL2ClockAdoptions }},
	cSnapExtensions:   {"snapshot_extensions", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.SnapshotExtensions }},
	cSnapRechecked:    {"snapshot_rechecked", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.SnapshotRechecked }},
	cSnapStale:        {"snapshot_stale", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.SnapshotStale }},
	cReadOnlyCommits:  {"read_only_commits", ReasonNone, onBoth, func(s *StatsSnapshot) *uint64 { return &s.ReadOnlyCommits }},
	cOwnedWords:       {"owned_words", ReasonNone, onST, func(s *StatsSnapshot) *uint64 { return &s.OwnedWords }},
}

// Counters returns the counter table rows an engine maintains, in table
// order: the protocol counters, that engine's abort taxonomy and telemetry,
// and the dynamic-transaction tally. Helps is listed for both engines (it
// is always 0 on TL2, and exported as such).
func Counters(k EngineKind) []CounterDef {
	var out []CounterDef
	for _, c := range counterTable {
		if c.engines&(1<<k) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// HistogramDef is one row of the histogram table: a StatsSnapshot
// histogram and its export key (stmobs.StatsMap and the JSONL record export
// it as hist_<key>).
type HistogramDef struct {
	// Key is the histogram's export key, e.g. "commit_nanos", "read_set".
	Key string
	// Nanos reports that the histogram's values are durations in
	// nanoseconds, and its Key ends in "_nanos"; otherwise they are sizes
	// in words.
	Nanos bool
	field func(*StatsSnapshot) *HistogramSnapshot
}

// Value returns the histogram's snapshot in s.
func (h HistogramDef) Value(s *StatsSnapshot) HistogramSnapshot { return *h.field(s) }

var histTable = [nHists]HistogramDef{
	hCommitNanos: {"commit_nanos", true, func(s *StatsSnapshot) *HistogramSnapshot { return &s.CommitNanos }},
	hAbortNanos:  {"abort_nanos", true, func(s *StatsSnapshot) *HistogramSnapshot { return &s.AbortNanos }},
	hReadSet:     {"read_set", false, func(s *StatsSnapshot) *HistogramSnapshot { return &s.ReadSetSize }},
	hWriteSet:    {"write_set", false, func(s *StatsSnapshot) *HistogramSnapshot { return &s.WriteSetSize }},
}

// Histograms returns the histogram table rows, in table order; both
// engines record every histogram.
func Histograms() []HistogramDef { return slices.Clone(histTable[:]) }

// statLine is one shard of counters and histograms, padded to whole cache
// lines so shards never false-share. Histogram bins share cache lines
// within a shard, which is fine — one shard is written from (at steady
// state) one P.
type statLine struct {
	c     [nCounters]atomic.Uint64
	hists [nHists]Hist

	// sampleSeq picks the 1-in-SampleEvery attempts whose latency is timed;
	// it is bookkeeping, not a published counter.
	sampleSeq atomic.Uint64

	_ [(cacheLineSize - (int(nCounters)+int(nHists)*HistBins+1)*8%cacheLineSize) % cacheLineSize]byte
}

// reason charges one failed attempt to its taxonomy entry.
func (l *statLine) reason(r AbortReason) {
	if r != ReasonNone {
		l.c[cHelps+counter(r)].Add(1)
	}
}

// HistBins is the number of log-scaled histogram bins. Bin 0 holds the
// value 0; bin i (1 ≤ i < HistBins-1) holds values in [2^(i-1), 2^i); the
// last bin holds everything from 2^(HistBins-2) up, so a nanosecond
// histogram resolves durations up to about a second.
const HistBins = 32

// Hist is one stripe of a log2 histogram: HistBins atomic bins. The engine
// keeps one per stats shard and histogram, stmserve one per session and
// distribution; a reader merges the stripes into a HistogramSnapshot with
// AddTo. The zero value is empty and ready to use.
type Hist struct {
	bins [HistBins]atomic.Uint64
}

// Observe records one value in its bin.
func (h *Hist) Observe(v uint64) { h.bins[min(bits.Len64(v), HistBins-1)].Add(1) }

// Reset zeroes every bin (not atomically across bins).
func (h *Hist) Reset() {
	for i := range h.bins {
		h.bins[i].Store(0)
	}
}

// AddTo merges the stripe's current counts into s.
func (h *Hist) AddTo(s *HistogramSnapshot) {
	for i := range h.bins {
		s.Counts[i] += h.bins[i].Load()
	}
}

// Stats accumulates protocol counters and histograms, sharded and
// cache-line padded. All updates are atomic; the zero value is ready to
// use.
type Stats struct {
	shards [statShards]statLine
}

// bump adds one to counter c on a shard.
func (s *Stats) bump(shard int, c counter) { s.shards[shard].c[c].Add(1) }

// reset zeroes every shard — all counters and histogram bins — in one
// sweep. The sweep is not atomic across fields or shards: see
// StatsSnapshot's torn-window contract.
func (s *Stats) reset() {
	for i := range s.shards {
		l := &s.shards[i]
		for c := range l.c {
			l.c[c].Store(0)
		}
		for h := range l.hists {
			l.hists[h].Reset()
		}
	}
}

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
		l.c[cSnapExtensions].Add(n)
		l.c[cSnapRechecked].Add(rechecked)
	}
	if stale != 0 {
		l.c[cSnapStale].Add(stale)
	}
	if readOnly != 0 {
		l.c[cReadOnlyCommits].Add(readOnly)
	}
}

// HistogramSnapshot is a point-in-time copy of one log-binned histogram,
// merged across shards. Counts[0] holds the value 0; Counts[i] holds
// [2^(i-1), 2^i); the last bin is open-ended (from 2^30: about 1.07 s in a
// nanosecond histogram).
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
// abort taxonomy, and histograms. Every uint64 field is one row of the
// counter table (Counters) and every histogram one row of the histogram
// table (Histograms); exporters walk the tables rather than the fields.
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
	// one that wrote adds exactly one Commit — a read found stale at commit
	// adds a Failure for every re-execution, never a Commit.
	Commits uint64
	// Failures counts attempts that failed; each triggered at most one
	// help.
	Failures uint64
	// Helps counts times an initiator executed another transaction's
	// protocol on its behalf (non-redundant helping). ST-only: always 0 on
	// a TL2 Memory.
	Helps uint64

	// ST abort taxonomy (ObsCounters+): STConflictAborts are ownership
	// conflicts whose blocker needed no help; STHelpedAborts additionally
	// executed the blocker's protocol; STValidateAborts owned their data
	// set but found a word of their read list stale (a dynamic commit whose
	// reads moved after its speculation). The three partition ST failures.
	STConflictAborts uint64
	STHelpedAborts   uint64
	STValidateAborts uint64

	// TL2 abort taxonomy (ObsCounters+): read-phase admission failures,
	// write-lock acquisition failures, and post-lock validation failures.
	// The three partition TL2 failures.
	TL2ReadAborts     uint64
	TL2LockAborts     uint64
	TL2ValidateAborts uint64

	// TL2 protocol telemetry (ObsCounters+). TL2ReadOnlyCommits counts
	// engine attempts that committed with an empty write set — the zero-RMW
	// fast path: a RunInto whose update changes nothing, a WriteAll or Store
	// of the current values, a dynamic commit that writes back exactly what
	// it read. A transaction that writes nothing makes no attempt at all and
	// is counted by ReadOnlyCommits.
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
	// everything built on them: ReadAllInto, Var.Load, a Var.CompareAndSwap
	// whose comparison failed) that committed having written nothing
	// (always on, both engines). Such a transaction is committed when its
	// speculation ends — every read it logged was current at one instant
	// inside the call, DESIGN.md §9 — so it makes no engine attempt and
	// none of the four protocol counters sees it: operations committed is
	// this plus the engine commits that installed something.
	ReadOnlyCommits uint64

	// OwnedWords counts the words committed ST attempts owned (always on,
	// ST only). A static attempt owns its whole data set; a dynamic
	// transaction's commit owns only the words it writes and validates the
	// rest (DESIGN.md §9), so over dynamic commits OwnedWords per Commit is
	// the write-set size. Failed attempts, whose ownerships were released,
	// are not counted.
	OwnedWords uint64

	// Attempt histograms (ObsHistograms+), merged across shards.
	// CommitNanos/AbortNanos are attempt durations in nanoseconds on the
	// monotonic clock, recorded for the 1 in ObsConfig.SampleEvery
	// attempts the sampler picks. ReadSetSize is the attempt's footprint
	// in words — its data set plus any read list, Event.Size — and
	// WriteSetSize its write-set size, recorded for every finished attempt.
	CommitNanos  HistogramSnapshot
	AbortNanos   HistogramSnapshot
	ReadSetSize  HistogramSnapshot
	WriteSetSize HistogramSnapshot
}

func (s *Stats) snapshot() StatsSnapshot {
	var out StatsSnapshot
	for i := range s.shards {
		l := &s.shards[i]
		for c, def := range counterTable {
			*def.field(&out) += l.c[c].Load()
		}
		for h, def := range histTable {
			l.hists[h].AddTo(def.field(&out))
		}
	}
	return out
}

// Add folds o into s: every counter and histogram bin adds. It totals
// several Memories (or several windows of one) into one snapshot.
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	for _, def := range counterTable {
		*def.field(s) += def.Value(&o)
	}
	for _, def := range histTable {
		h := def.field(s)
		for i, n := range def.field(&o).Counts {
			h.Counts[i] += n
		}
	}
}

// FailureRate returns failures per attempt, or 0 for no attempts.
func (s StatsSnapshot) FailureRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.Failures) / float64(s.Attempts)
}
