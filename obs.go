package stm

import (
	"github.com/stm-go/stm/internal/core"
)

// Observability: the stmobs seam, re-exported from the engine.
//
// A Memory can be observed at three cumulative levels (ObsLevel): off (the
// default — every hook on the attempt path is one predicted branch, zero
// allocations, zero counters beyond the four protocol counters), counters
// (abort-reason taxonomy on Stats plus events to a registered Observer),
// and histograms (read/write-set-size histograms of every attempt, and the
// commit/abort latency in nanoseconds of 1 attempt in
// ObsConfig.SampleEvery, which that attempt's event also carries). No
// level allocates.
// The stmobs package builds export surfaces — an expvar publisher, a
// flight recorder, pprof label tagging — on top of this seam. See
// DESIGN.md §12.

// ObsLevel selects how much the observability seam records; levels are
// cumulative. The zero value is ObsOff.
type ObsLevel = core.ObsLevel

// The observability levels, least to most detailed.
const (
	// ObsOff disables the seam entirely (the default).
	ObsOff = core.ObsOff
	// ObsCounters enables the abort-reason taxonomy counters on Stats and
	// event delivery to a registered Observer.
	ObsCounters = core.ObsCounters
	// ObsHistograms additionally records read/write-set-size histograms
	// and, for 1 attempt in ObsConfig.SampleEvery, commit/abort latency.
	ObsHistograms = core.ObsHistograms
)

// Observer receives events from the engine attempt path; see the
// core definition for the concurrency and no-retention contract.
type Observer = core.Observer

// Event is one observation from the attempt path. The *Event an Observer
// receives is record-owned scratch — copy, don't retain.
type Event = core.Event

// EventKind is an engine attempt's outcome; an Observer sees one per attempt.
type EventKind = core.EventKind

// The attempt outcomes: every engine attempt ends in exactly one of them.
const (
	EvCommit = core.EvCommit
	EvAbort  = core.EvAbort
)

// AbortReason classifies why an attempt failed, per engine; every failed
// attempt is charged to exactly one reason.
type AbortReason = core.AbortReason

// The abort taxonomy. ST failures are ReasonSTConflict, ReasonSTHelped, or
// ReasonSTValidate; TL2 failures are ReasonTL2Read, ReasonTL2Lock, or
// ReasonTL2Validate.
const (
	ReasonNone        = core.ReasonNone
	ReasonSTConflict  = core.ReasonSTConflict
	ReasonSTHelped    = core.ReasonSTHelped
	ReasonSTValidate  = core.ReasonSTValidate
	ReasonTL2Read     = core.ReasonTL2Read
	ReasonTL2Lock     = core.ReasonTL2Lock
	ReasonTL2Validate = core.ReasonTL2Validate
)

// ObsConfig configures a Memory's observability seam.
type ObsConfig = core.ObsConfig

// DefaultSampleEvery is the latency sampling period used when
// ObsConfig leaves SampleEvery zero.
const DefaultSampleEvery = core.DefaultSampleEvery

// HistBins is the number of bins in every log-scaled histogram this module
// records; see HistogramSnapshot for the bin layout.
const HistBins = core.HistBins

// Hist is one stripe of a log2 histogram — HistBins atomic bins with
// Observe, Reset and AddTo (a merge into a HistogramSnapshot). The engine's
// attempt histograms and the stmserve per-command metrics are both made of
// Hists, so every distribution this module exports bins alike.
type Hist = core.Hist

// HistogramSnapshot is a point-in-time copy of one log-binned histogram;
// see StatsSnapshot's histogram fields.
type HistogramSnapshot = core.HistogramSnapshot

// StatsSnapshot is the Stats return type: protocol counters, abort
// taxonomy, and histograms, with the torn-window contract documented on
// the type.
type StatsSnapshot = core.StatsSnapshot

// CounterDef is one row of the counter table behind StatsSnapshot: its
// export key, its abort reason (taxonomy rows only), and Value.
type CounterDef = core.CounterDef

// Counters returns the counter table rows an engine maintains, in table
// order. Every exporter (stmobs.StatsMap, stmobs.WriteProm, the simulation
// JSONL record, DebugString) walks it instead of naming fields.
func Counters(e Engine) []CounterDef { return core.Counters(e) }

// HistogramDef is one row of the histogram table behind StatsSnapshot: its
// export key, its unit (nanoseconds or words), and Value.
type HistogramDef = core.HistogramDef

// Histograms returns the histogram table rows, in table order.
func Histograms() []HistogramDef { return core.Histograms() }

// Observe installs cfg as the Memory's observability configuration,
// replacing any previous one. It is safe to call while transactions run;
// an attempt racing the swap may deliver events under either configuration.
// Accumulated taxonomy and histogram state is kept — ResetStats clears it.
func (m *Memory) Observe(cfg ObsConfig) { m.eng.Observe(cfg) }

// ObsLevel returns the currently enabled observability level.
func (m *Memory) ObsLevel() ObsLevel { return m.eng.ObsLevel() }

// DebugString returns a human-readable dump of the Memory's observability
// state: engine, the word chunks built so far, counters, abort taxonomy,
// histogram summaries, and the hottest conflict words. Diagnostic only,
// with Stats's torn-window caveats.
func (m *Memory) DebugString() string { return m.eng.DebugString() }

// WithObs configures the observability seam at construction — equivalent
// to calling Observe(cfg) on the new Memory before first use.
func WithObs(cfg ObsConfig) Option {
	return func(c *config) { c.obs = &cfg }
}
