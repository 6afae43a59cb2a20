package stmobs

import (
	"fmt"
	"io"

	stm "github.com/stm-go/stm"
)

// Prometheus text-format export over stm.StatsSnapshot. The metric names
// and label sets below are stable API (DESIGN.md §15): dashboards and
// alerts may depend on them.
//
//	stm_attempts_total / stm_commits_total / stm_failures_total /
//	stm_helps_total                  {memory, engine}
//	stm_aborts_total                 {memory, engine, reason} — the abort
//	                                 taxonomy, one series per reason of the
//	                                 Memory's engine
//	stm_tl2_read_only_commits_total / stm_tl2_clock_races_total /
//	stm_tl2_clock_adoptions_total    {memory, engine} — TL2 memories only
//	stm_snapshot_extensions_total / stm_snapshot_rechecked_words_total /
//	stm_snapshot_stale_total         {memory, engine} — dynamic transactions'
//	                                 slow path: read-set re-checks forced by
//	                                 a moved commit epoch, their size, and
//	                                 how many unwound the execution
//	stm_read_only_commits_total      {memory, engine} — dynamic transactions
//	                                 that wrote nothing and so committed with
//	                                 no engine attempt (not in stm_commits_total)
//	stm_obs_level                    {memory, engine} gauge (0=off..3=trace)
//	stm_tick_seconds                 gauge: nominal seconds per coarse tick
//	stm_commit_ticks / stm_abort_ticks / stm_read_set_words /
//	stm_write_set_words              {memory, engine} histograms
//
// Histogram buckets mirror the engine's log2 bins: le="0","1","3","7",…,
// "+Inf" (bin i holds values in [2^(i-1), 2^i)). The _sum series is a
// lower-bound estimate computed from bucket lower bounds — the engine does
// not track exact sums — and is documented as approximate.

// WriteProm writes one Memory's stats snapshot in Prometheus text format,
// labelled memory=name. It takes a fresh snapshot per call, with
// stm.StatsSnapshot's torn-window caveats.
func WriteProm(w io.Writer, name string, m *stm.Memory) {
	s := m.Stats()
	labels := fmt.Sprintf("memory=%q,engine=%q", name, m.Engine().String())

	counter := func(metric string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s{%s} %d\n", metric, metric, labels, v)
	}
	counter("stm_attempts_total", s.Attempts)
	counter("stm_commits_total", s.Commits)
	counter("stm_failures_total", s.Failures)
	counter("stm_helps_total", s.Helps)

	fmt.Fprintf(w, "# TYPE stm_aborts_total counter\n")
	abort := func(reason stm.AbortReason, v uint64) {
		fmt.Fprintf(w, "stm_aborts_total{%s,reason=%q} %d\n", labels, reason.String(), v)
	}
	switch m.Engine() {
	case stm.ST:
		abort(stm.ReasonSTConflict, s.STConflictAborts)
		abort(stm.ReasonSTHelped, s.STHelpedAborts)
	case stm.TL2:
		abort(stm.ReasonTL2Read, s.TL2ReadAborts)
		abort(stm.ReasonTL2Lock, s.TL2LockAborts)
		abort(stm.ReasonTL2Validate, s.TL2ValidateAborts)
		counter("stm_tl2_read_only_commits_total", s.TL2ReadOnlyCommits)
		counter("stm_tl2_clock_races_total", s.TL2ClockRaces)
		counter("stm_tl2_clock_adoptions_total", s.TL2ClockAdoptions)
	}
	counter("stm_snapshot_extensions_total", s.SnapshotExtensions)
	counter("stm_snapshot_rechecked_words_total", s.SnapshotRechecked)
	counter("stm_snapshot_stale_total", s.SnapshotStale)
	counter("stm_read_only_commits_total", s.ReadOnlyCommits)

	fmt.Fprintf(w, "# TYPE stm_obs_level gauge\nstm_obs_level{%s} %d\n",
		labels, uint32(m.ObsLevel()))
	fmt.Fprintf(w, "# TYPE stm_tick_seconds gauge\nstm_tick_seconds %g\n",
		stm.TickInterval.Seconds())

	WritePromHist(w, "stm_commit_ticks", labels, s.CommitTicks)
	WritePromHist(w, "stm_abort_ticks", labels, s.AbortTicks)
	WritePromHist(w, "stm_read_set_words", labels, s.ReadSetSize)
	WritePromHist(w, "stm_write_set_words", labels, s.WriteSetSize)
}

// WritePromHist writes one log2-binned HistogramSnapshot as a Prometheus
// histogram (metric_bucket cumulative series with le upper bounds, an
// approximate lower-bound metric_sum, and metric_count). labels is the
// pre-rendered label body without braces, e.g. `memory="kv",engine="st"`;
// it may be empty. Shared by the stm memory export above and producer
// collectors (the stmserve server metrics) so every histogram on an admin
// endpoint speaks the same bucket layout.
func WritePromHist(w io.Writer, metric, labels string, h stm.HistogramSnapshot) {
	brace := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		}
		return "{" + labels + "," + extra + "}"
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", metric)
	var cum, sum uint64
	for i, c := range h.Counts {
		cum += c
		lo, _ := h.BucketBounds(i)
		sum += c * lo
		if i == stm.HistBins-1 {
			break // the open-ended bin is the +Inf bucket below
		}
		// Bin i holds [2^(i-1), 2^i) over integers: upper bound 2^i - 1.
		var le uint64
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", metric, brace(fmt.Sprintf("le=\"%d\"", le)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", metric, brace(`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %d\n", metric, brace(""), sum)
	fmt.Fprintf(w, "%s_count%s %d\n", metric, brace(""), cum)
}
