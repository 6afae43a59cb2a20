package core

import (
	"fmt"
	"sort"
	"strings"
)

// The stmobs event seam: per-attempt observability with zero cost when off.
//
// Every hook site is guarded by one plain load of Memory.obsLvl (atomic
// loads are ordinary loads on x86-64/arm64) and a branch that predicts
// not-taken while observability is off — the same discipline the engine
// dispatch uses (engine.go's devirtualized type switch) to keep the fast
// path free of interface-call side effects. When a level is enabled, event
// delivery reuses the record-owned Event scratch (Rec.evt), so a registered
// observer costs interface calls but no allocations: the Event rides the
// pooled record exactly like the calc scratch does.
//
// Three consumers hang off the seam, in increasing cost order:
//
//	ObsCounters   abort-reason taxonomy counters (striped into the stats
//	              shards; bumped only at engine failure sites and the TL2
//	              read-only/clock paths) plus Begin/Commit/Abort/ReadSet/
//	              Lock/ValidationFail events to a registered Observer.
//	ObsHistograms + commit/abort latency (coarse ticks; see ticks.go) and
//	              read/write-set-size histograms, per stats shard.
//	ObsTrace      + sampled per-transaction traces: 1-in-SampleEvery
//	              attempts (per stats shard) build a TraceEvent with a
//	              copied footprint and hand it to the TraceObserver. The
//	              sampled path may allocate; the sampling makes it cheap.
//
// The contention policy and this seam are two consumers of the same
// engine-side conflict report: an engine failure site fills the caller's
// ConflictInfo (feeding contention.Policy) and records the abort reason on
// the record (feeding the taxonomy and the EvAbort event) in the same
// breath, so the two surfaces can never disagree about why an attempt died.

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
	// ObsHistograms additionally records commit/abort latency and
	// read/write-set-size histograms.
	ObsHistograms
	// ObsTrace additionally samples 1-in-SampleEvery attempts into
	// TraceEvents delivered to a registered TraceObserver.
	ObsTrace
)

// String returns the level's selector name ("off", "counters", "hist",
// "trace").
func (l ObsLevel) String() string {
	switch l {
	case ObsOff:
		return "off"
	case ObsCounters:
		return "counters"
	case ObsHistograms:
		return "hist"
	case ObsTrace:
		return "trace"
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

// EventKind identifies one hook site on the engine attempt path.
type EventKind uint8

const (
	// EvBegin fires when an armed attempt starts executing.
	EvBegin EventKind = iota
	// EvReadSet fires when the attempt's read phase completes: the whole
	// data set has been read consistently. The TL2 engine emits it after
	// the invisible-read phase; the ST engine's reads are its ownership
	// acquisition, so it emits EvLock instead.
	EvReadSet
	// EvLock fires when the attempt's write locks are held: the TL2 lock
	// phase (Writes = write-set size) or the ST ownership acquisition
	// (Writes = data-set size; ST acquires its whole set).
	EvLock
	// EvValidationFail fires when a validation or admission check fails:
	// the TL2 read-phase rejection or revalidation failure, or a stale read
	// list on either engine, at the failing word (Addr). It is always
	// followed by EvAbort.
	EvValidationFail
	// EvCommit fires when the attempt commits. Ticks is the attempt
	// duration in coarse ticks (0 below ObsHistograms or under one tick).
	EvCommit
	// EvAbort fires when the attempt fails, with the taxonomy Reason, the
	// word it died at (Addr), and the attempt duration in Ticks.
	EvAbort
)

// eventNames is index-aligned with the EventKind constants.
var eventNames = [...]string{
	"begin", "readset", "lock", "validation-fail", "commit", "abort",
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
// pointer. All fields are scalars — copying the struct is safe and cheap.
type Event struct {
	// Kind is the hook site that fired.
	Kind EventKind
	// Engine is the Memory's commit protocol.
	Engine EngineKind
	// Seq is the record's attempt identity (Rec.Version), monotone per
	// reuse of the record.
	Seq uint64
	// Addr is the word the event concerns (the failing word for
	// EvValidationFail/EvAbort), or -1 when no single word is.
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
	// Ticks is the attempt duration in coarse ticks for EvCommit/EvAbort
	// at ObsHistograms and above; 0 otherwise. See ticks.go for the
	// precision contract.
	Ticks uint64
}

// Observer receives events from the engine attempt path. Implementations
// are called synchronously from the attempt's goroutine, concurrently from
// every goroutine running transactions, and must be fast, non-blocking, and
// safe for concurrent use. The *Event is record-owned scratch — copy, don't
// retain (see Event).
type Observer interface {
	ObsEvent(e *Event)
}

// TraceEvent is one sampled per-transaction trace: the attempt's footprint,
// outcome, and timing, built only for the 1-in-SampleEvery attempts the
// ObsTrace level samples. Unlike Event it is freshly allocated and owned by
// the receiver — tracers may retain it.
type TraceEvent struct {
	// Engine is the Memory's commit protocol.
	Engine EngineKind
	// Seq is the attempt identity (Rec.Version).
	Seq uint64
	// Addrs is the attempt's data set (engine order), copied: a dynamic
	// commit's written words, without its read list.
	Addrs []int
	// Writes is the write-set size (TL2: changed words; ST: the words it
	// owns, which is its data set), or -1 if the attempt failed before
	// computing it.
	Writes int
	// Committed reports the outcome; Reason is the taxonomy entry for
	// failed attempts.
	Committed bool
	Reason    AbortReason
	// Ticks is the attempt duration in coarse ticks (see ticks.go).
	Ticks uint64
}

// TraceObserver receives sampled traces. An Observer that also implements
// TraceObserver is detected once, at Observe time (never per event).
type TraceObserver interface {
	ObsTrace(t *TraceEvent)
}

// ObsConfig configures a Memory's observability seam.
type ObsConfig struct {
	// Level selects what the seam records; ObsOff disables everything.
	Level ObsLevel
	// Observer, when non-nil, receives attempt events at ObsCounters and
	// above. If it also implements TraceObserver it receives sampled
	// traces at ObsTrace.
	Observer Observer
	// SampleEvery is the trace sampling period at ObsTrace: one attempt in
	// SampleEvery (per stats shard) is traced. 0 means DefaultSampleEvery.
	SampleEvery int
}

// DefaultSampleEvery is the trace sampling period used when ObsConfig
// leaves SampleEvery zero.
const DefaultSampleEvery = 128

// obsState is the immutable registered configuration; Memory.obsPtr swaps
// whole states so concurrent readers always see a consistent triple.
type obsState struct {
	observer    Observer
	tracer      TraceObserver // cached type assertion of observer
	sampleEvery uint64
}

// Observe installs cfg as the Memory's observability configuration,
// replacing any previous one. It is safe to call while transactions run:
// attempts racing the swap observe either configuration (an attempt may
// even begin under one and end under the other — observers must tolerate
// unpaired begin/end events across a reconfiguration). Histogram and
// taxonomy state accumulated so far is kept; use ResetStats to clear it.
func (m *Memory) Observe(cfg ObsConfig) {
	st := &obsState{observer: cfg.Observer, sampleEvery: uint64(cfg.SampleEvery)}
	if st.sampleEvery == 0 {
		st.sampleEvery = DefaultSampleEvery
	}
	if t, ok := cfg.Observer.(TraceObserver); ok {
		st.tracer = t
	}
	if cfg.Level >= ObsHistograms {
		startTicks()
	}
	m.obsPtr.Store(st)
	m.obsLvl.Store(uint32(cfg.Level))
}

// ObsLevel returns the currently enabled observability level.
func (m *Memory) ObsLevel() ObsLevel { return ObsLevel(m.obsLvl.Load()) }

// obsLevel is the hot-path gate: one plain load. Call sites compare against
// ObsOff and branch around everything else.
func (m *Memory) obsLevel() ObsLevel { return ObsLevel(m.obsLvl.Load()) }

// obsBegin opens an attempt's observation: stamps the start tick (at
// ObsHistograms and above) and emits EvBegin to a registered observer.
// Called only when the level is not ObsOff.
func (m *Memory) obsBegin(rec *Rec, lvl ObsLevel) {
	rec.obsReason = ReasonNone
	rec.obsWrites = -1
	if lvl >= ObsHistograms {
		rec.obsT0 = nowTicks()
	}
	if st := m.obsPtr.Load(); st != nil && st.observer != nil {
		rec.evt = Event{
			Kind:   EvBegin,
			Engine: m.kind,
			Seq:    rec.version.Load(),
			Addr:   -1,
			Size:   rec.footprint(),
			Writes: -1,
		}
		st.observer.ObsEvent(&rec.evt)
	}
}

// obsEnd closes an attempt's observation: taxonomy counters, histograms,
// the EvCommit/EvAbort event, and trace sampling. Called only when the
// level is not ObsOff, after the engine decided the outcome.
func (m *Memory) obsEnd(rec *Rec, lvl ObsLevel, ok bool) {
	sh := &m.stats.shards[rec.shard]
	if !ok {
		sh.reason(rec.obsReason)
	}
	var dt uint64
	if lvl >= ObsHistograms {
		dt = nowTicks() - rec.obsT0
		if ok {
			sh.hists[hCommitTicks].Observe(dt)
		} else {
			sh.hists[hAbortTicks].Observe(dt)
		}
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
		rec.evt = Event{
			Kind:   kind,
			Engine: m.kind,
			Seq:    rec.version.Load(),
			Addr:   addr,
			Size:   rec.footprint(),
			Writes: rec.obsWrites,
			Reason: reason,
			Ticks:  dt,
		}
		st.observer.ObsEvent(&rec.evt)
	}
	if lvl >= ObsTrace && st.tracer != nil {
		if sh.traceSeq.Add(1)%st.sampleEvery == 0 {
			t := &TraceEvent{
				Engine:    m.kind,
				Seq:       rec.version.Load(),
				Addrs:     append([]int(nil), rec.addrs...),
				Writes:    rec.obsWrites,
				Committed: ok,
				Reason:    rec.obsReason,
				Ticks:     dt,
			}
			st.tracer.ObsTrace(t)
		}
	}
}

// obsEmit delivers a mid-attempt event (EvReadSet, EvLock,
// EvValidationFail) through the record-owned scratch. Engines call it only
// after checking the level; it re-checks the observer because the
// configuration may have been swapped mid-attempt.
func (m *Memory) obsEmit(rec *Rec, kind EventKind, addr, writes int) {
	st := m.obsPtr.Load()
	if st == nil || st.observer == nil {
		return
	}
	rec.evt = Event{
		Kind:   kind,
		Engine: m.kind,
		Seq:    rec.version.Load(),
		Addr:   addr,
		Size:   rec.footprint(),
		Writes: writes,
	}
	st.observer.ObsEvent(&rec.evt)
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
// state: engine, size, failure rate, the engine's counters under their
// export keys, histogram summaries (when populated), and the hottest
// conflict words. It is a diagnostic snapshot with the same torn-window
// caveats as Stats.
func (m *Memory) DebugString() string {
	var sb strings.Builder
	s := m.Stats()
	fmt.Fprintf(&sb, "stm.Memory: engine=%s size=%d obs=%s failure-rate=%.4f",
		m.kind, len(m.words), m.ObsLevel(), s.FailureRate())
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
		if def.Ticks {
			unit = fmt.Sprintf("1 tick ≈ %v nominal", TickInterval)
		}
		fmt.Fprintf(&sb, "  %-12s %s  (n=%d, %s)\n", def.Key, h.String(), h.Total(), unit)
	}

	// Hottest conflict words: scan the per-word counters, report the top 5.
	type hot struct {
		addr  int
		count uint64
	}
	var hots []hot
	for i := range m.words {
		if c := m.words[i].conflicts.Load(); c != 0 {
			hots = append(hots, hot{i, c})
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
