package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The stmobs event seam: per-attempt observability with zero cost when off.
//
// Every hook site is guarded by one plain load of Memory.obsLvl (atomic
// loads are ordinary loads on x86-64/arm64) and a branch that predicts
// not-taken while observability is off — the same discipline the engine
// dispatch uses (engine.go's devirtualized type switch) to keep the fast
// path free of interface-call side effects. When a level is enabled, event
// delivery reuses the record-owned Event scratch (Rec.evt), so a registered
// observer costs interface calls but no allocations at any level: the Event
// rides the pooled record exactly like the calc scratch does, and its Addrs
// is the record's own data set, not a copy.
//
// Two levels hang off the seam, in increasing cost order:
//
//	ObsCounters   abort-reason taxonomy counters (striped into the stats
//	              shards; bumped only at engine failure sites and the TL2
//	              read-only/clock paths) plus Begin/Commit/Abort/ReadSet/
//	              Lock/ValidationFail events to a registered Observer.
//	ObsHistograms + read/write-set-size histograms of every attempt, and
//	              commit/abort latency of the sampled attempts, per stats
//	              shard.
//
// At ObsHistograms, 1 in SampleEvery attempts (per stats shard, counted at
// obsBegin) reads the monotonic clock at begin and end; its EvCommit or
// EvAbort carries the Elapsed time, so the sampled events are the traces.
// The clock is never read for the other attempts, because a read on every
// attempt costs a measurable share of a sub-microsecond commit.
//
// The retry driver and this seam are two consumers of the same engine-side
// conflict report: an engine failure site fills the caller's ConflictInfo
// (telling the driver whether a dynamic commit's reads went stale) and
// records the abort reason on the record (feeding the taxonomy and the
// EvAbort event) in the same breath, so the two can never disagree about
// why an attempt died.

// ObsLevel selects how much the observability seam records. Levels are
// cumulative: each includes everything below it.
type ObsLevel uint32

const (
	// ObsOff disables the seam entirely: every hook site is one predicted
	// branch, no counters beyond the four protocol counters, no events.
	ObsOff ObsLevel = iota
	// ObsCounters enables the abort-reason taxonomy counters and event
	// delivery to a registered Observer.
	ObsCounters
	// ObsHistograms additionally records read/write-set-size histograms
	// and times 1 in SampleEvery attempts: their latency feeds the
	// commit/abort histograms and their events' Elapsed. It is the top
	// level.
	ObsHistograms
)

// String returns the level's selector name ("off", "counters", "hist").
func (l ObsLevel) String() string {
	switch l {
	case ObsOff:
		return "off"
	case ObsCounters:
		return "counters"
	case ObsHistograms:
		return "hist"
	}
	return fmt.Sprintf("ObsLevel(%d)", uint32(l))
}

// AbortReason classifies why an attempt failed, per engine. The taxonomy is
// mutually exclusive: every failed attempt is charged to exactly one
// reason.
type AbortReason uint8

const (
	// ReasonNone is the zero reason: the attempt committed (or has not
	// finished).
	ReasonNone AbortReason = iota

	// ReasonSTConflict (ST) is an ownership conflict: a data-set word was
	// owned by another record, and the blocker had already completed (or
	// was transient) by the time this attempt's failure path inspected it,
	// so no help was performed.
	ReasonSTConflict
	// ReasonSTHelped (ST) is an ownership conflict whose failure path found
	// the blocker still stable and executed its protocol on its behalf —
	// the cooperative-helping cost of the failure, paid by this attempt.
	ReasonSTHelped
	// ReasonSTValidate (ST) is a read-list validation failure: the attempt
	// owned its data set, but a word on its read list (Rec.SetReadSet) was
	// owned by another record or had moved since the caller's epoch sample,
	// so it released everything and installed nothing.
	ReasonSTValidate

	// ReasonTL2Read (TL2) is an invisible-read admission failure: a data-set
	// word was locked, version-stamped above the read version, or moved
	// between the stamp check and the value load.
	ReasonTL2Read
	// ReasonTL2Lock (TL2) is a write-lock acquisition failure: a write-set
	// word was locked by a concurrent committer.
	ReasonTL2Lock
	// ReasonTL2Validate (TL2) is a validation failure: the clock moved
	// between the read sample and the lock phase, and revalidation found a
	// data-set word overwritten or locked since the reads, or a read-list
	// word (Rec.SetReadSet) was locked or stamped past the caller's epoch
	// sample.
	ReasonTL2Validate
)

// reasonNames is index-aligned with the AbortReason constants.
var reasonNames = [...]string{
	"none", "st-conflict", "st-helped", "st-validate", "tl2-read", "tl2-lock", "tl2-validate",
}

// String returns the reason's taxonomy name.
func (r AbortReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("AbortReason(%d)", uint8(r))
}

// EventKind is an engine attempt's outcome: an Observer sees one event per
// attempt, when the engine has decided it.
type EventKind uint8

const (
	// EvCommit fires when the attempt commits, with the attempt's Elapsed
	// time if it was sampled.
	EvCommit EventKind = iota
	// EvAbort fires when the attempt fails, with the taxonomy Reason, the
	// word it died at (Addr), and the attempt's Elapsed time if sampled.
	EvAbort
)

// eventNames is index-aligned with the EventKind constants.
var eventNames = [...]string{
	"commit", "abort",
}

// String returns the kind's name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one observation from the engine attempt path. The *Event an
// Observer receives is record-owned scratch: it is valid only for the
// duration of the ObsEvent call and is overwritten by the record's next
// event, so observers must copy what they keep and must not retain the
// pointer. Every field but Addrs is a scalar; Addrs aliases the record's
// data set, so an observer that keeps it copies the slice, not just the
// struct.
type Event struct {
	// Kind is the attempt's outcome.
	Kind EventKind
	// Engine is the Memory's commit protocol.
	Engine EngineKind
	// Seq is the record's attempt identity (Rec.Version), monotone per
	// reuse of the record.
	Seq uint64
	// Addr is the word the attempt failed at (EvAbort), or -1 when no
	// single word is.
	Addr int
	// Size is the attempt's footprint in words: the data set plus the
	// validated reads of its read list (Rec.SetReadSet), so a dynamic
	// commit reports every word its transaction touched — a word it read
	// and then wrote is on both, and counts twice.
	Size int
	// Writes is the write-set size in words: the words the engine will
	// install (TL2: values that actually change; ST: the words it owns —
	// the whole data set of a static attempt, a dynamic commit's writes).
	// It is -1 before the engine has computed it.
	Writes int
	// Reason is the abort taxonomy entry (EvAbort only; ReasonNone
	// otherwise).
	Reason AbortReason
	// Elapsed is the attempt's duration on the monotonic clock for
	// EvCommit/EvAbort of an attempt sampled at ObsHistograms (1 in
	// ObsConfig.SampleEvery); 0 otherwise.
	Elapsed time.Duration
	// Addrs is the attempt's data set in engine order: a static attempt's
	// words, a dynamic commit's written words (its read list is not on
	// it). It is record-owned scratch, valid only during ObsEvent — copy,
	// don't retain.
	Addrs []int
}

// Observer receives the outcome of every engine attempt. Implementations
// are called synchronously from the attempt's goroutine, concurrently from
// every goroutine running transactions, and must be fast, non-blocking, and
// safe for concurrent use. The *Event is record-owned scratch — copy, don't
// retain (see Event).
type Observer interface {
	ObsEvent(e *Event)
}

// ObsConfig configures a Memory's observability seam.
type ObsConfig struct {
	// Level selects what the seam records; ObsOff disables everything.
	Level ObsLevel
	// Observer, when non-nil, receives attempt events at ObsCounters and
	// above.
	Observer Observer
	// SampleEvery is the sampling period at ObsHistograms: one attempt in
	// SampleEvery (per stats shard) is timed on the monotonic clock,
	// feeding the commit/abort latency histograms and Event.Elapsed. Size
	// histograms and events see every attempt. 0 means DefaultSampleEvery;
	// 1 times every attempt.
	SampleEvery int
}

// DefaultSampleEvery is the sampling period used when ObsConfig leaves
// SampleEvery zero.
const DefaultSampleEvery = 128

// obsState is the immutable registered configuration; Memory.obsPtr swaps
// whole states so concurrent readers always see a consistent pair.
type obsState struct {
	observer    Observer
	sampleEvery uint64
}

// Observe installs cfg as the Memory's observability configuration,
// replacing any previous one. It is safe to call while transactions run:
// attempts racing the swap observe either configuration (an attempt may
// even begin under one and end under the other: sampled under the old
// period, reported to the new observer). Histogram and taxonomy state
// accumulated so far is kept; use ResetStats to clear it.
func (m *Memory) Observe(cfg ObsConfig) {
	st := &obsState{observer: cfg.Observer, sampleEvery: uint64(cfg.SampleEvery)}
	if st.sampleEvery == 0 {
		st.sampleEvery = DefaultSampleEvery
	}
	m.obsPtr.Store(st)
	m.obsLvl.Store(uint32(cfg.Level))
}

// ObsLevel returns the currently enabled observability level.
func (m *Memory) ObsLevel() ObsLevel { return ObsLevel(m.obsLvl.Load()) }

// obsLevel is the hot-path gate: one plain load. Call sites compare against
// ObsOff and branch around everything else.
func (m *Memory) obsLevel() ObsLevel { return ObsLevel(m.obsLvl.Load()) }

// obsBegin opens an attempt's observation: at ObsHistograms it reads the
// clock if the shard's sampler picks this attempt. Called only when the
// level is not ObsOff.
func (m *Memory) obsBegin(rec *Rec, lvl ObsLevel) {
	rec.obsReason = ReasonNone
	rec.obsWrites = -1
	rec.obsT0 = 0
	st := m.obsPtr.Load()
	if st == nil {
		return
	}
	if lvl >= ObsHistograms && m.stats.shards[rec.shard].sampleSeq.Add(1)%st.sampleEvery == 0 {
		rec.obsT0 = monoNanos()
	}
}

// clockBase anchors the attempt clock. time.Since of a reading that
// carries the monotonic clock reads only that clock, once, where time.Now
// reads the wall clock as well.
var clockBase = time.Now()

// monoNanos reads the monotonic clock in nanoseconds since clockBase,
// which is never 0 once package initialisation is over.
func monoNanos() int64 { return int64(time.Since(clockBase)) }

// obsEnd closes an attempt's observation: taxonomy counters, histograms,
// and the EvCommit/EvAbort event. Called only when the level is not
// ObsOff, after the engine decided the outcome.
func (m *Memory) obsEnd(rec *Rec, lvl ObsLevel, ok bool) {
	sh := &m.stats.shards[rec.shard]
	if !ok {
		sh.reason(rec.obsReason)
	}
	var dt time.Duration
	if rec.obsT0 != 0 {
		dt = time.Duration(monoNanos() - rec.obsT0)
		if ok {
			sh.hists[hCommitNanos].Observe(uint64(dt))
		} else {
			sh.hists[hAbortNanos].Observe(uint64(dt))
		}
	}
	if lvl >= ObsHistograms {
		sh.hists[hReadSet].Observe(uint64(rec.footprint()))
		if rec.obsWrites >= 0 {
			sh.hists[hWriteSet].Observe(uint64(rec.obsWrites))
		}
	}
	st := m.obsPtr.Load()
	if st == nil {
		return
	}
	if st.observer != nil {
		kind, addr, reason := EvCommit, -1, ReasonNone
		if !ok {
			kind, addr, reason = EvAbort, rec.obsAddr, rec.obsReason
		}
		st.observer.ObsEvent(m.event(rec, kind, addr, rec.obsWrites, reason, dt))
	}
}

// event fills the record-owned Event scratch field by field and returns
// it. Assigning a whole Event literal would build it on the stack and copy
// it behind a write-barrier check, because Addrs is a pointer field.
func (m *Memory) event(rec *Rec, kind EventKind, addr, writes int, reason AbortReason, dt time.Duration) *Event {
	e := &rec.evt
	e.Kind = kind
	e.Engine = m.kind
	e.Seq = rec.version.Load()
	e.Addr = addr
	e.Size = rec.footprint()
	e.Writes = writes
	e.Reason = reason
	e.Elapsed = dt
	e.Addrs = rec.addrs
	return e
}

// obsFail records an engine failure site's taxonomy entry on the record,
// for obsEnd to charge. It runs unconditionally at the (cold) failure
// sites; the stores are plain because only the attempt's initiating
// goroutine touches these fields.
func (r *Rec) obsFail(reason AbortReason, addr int) {
	r.obsReason = reason
	r.obsAddr = addr
}

// DebugString returns a human-readable dump of the Memory's observability
// state: engine, size, how many of its word chunks are built
// (chunks=built/total), failure rate, the engine's counters under their
// export keys, histogram summaries (when populated), and the hottest
// conflict words. It is a diagnostic snapshot with the same torn-window
// caveats as Stats.
func (m *Memory) DebugString() string {
	var sb strings.Builder
	s := m.Stats()
	fmt.Fprintf(&sb, "stm.Memory: engine=%s size=%d chunks=%d/%d obs=%s failure-rate=%.4f",
		m.kind, m.size, m.builtChunks(), len(m.chunks), m.ObsLevel(), s.FailureRate())
	for i, c := range Counters(m.kind) {
		if i%4 == 0 {
			sb.WriteString("\n ")
		}
		fmt.Fprintf(&sb, " %s=%d", c.Key, c.Value(&s))
	}
	sb.WriteByte('\n')
	for _, def := range histTable {
		h := def.Value(&s)
		if h.Total() == 0 {
			continue
		}
		unit := "words"
		if def.Nanos {
			unit = "ns, sampled"
		}
		fmt.Fprintf(&sb, "  %-12s %s  (n=%d, %s)\n", def.Key, h.String(), h.Total(), unit)
	}

	// Hottest conflict words: scan the per-word counters, report the top 5.
	type hot struct {
		addr  int
		count uint64
	}
	var hots []hot
	for ci := range m.chunks {
		words := m.builtChunk(ci)
		for i := range words {
			if c := words[i].conflicts.Load(); c != 0 {
				hots = append(hots, hot{ci<<chunkShift + i, c})
			}
		}
	}
	if len(hots) > 0 {
		sort.Slice(hots, func(i, j int) bool { return hots[i].count > hots[j].count })
		if len(hots) > 5 {
			hots = hots[:5]
		}
		sb.WriteString("  hot words:")
		for _, h := range hots {
			fmt.Fprintf(&sb, " %d:%d", h.addr, h.count)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
