package stmobs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	stm "github.com/stm-go/stm"
)

// Prometheus text-format export over stm.StatsSnapshot. The metric names
// and label sets are stable API (DESIGN.md §15): dashboards and alerts may
// depend on them. They are derived from the counter and histogram tables
// (stm.Counters, stm.Histograms), every series labelled {memory, engine}:
//
//	stm_<key>_total        one counter per row the Memory's engine
//	                       maintains, e.g. stm_attempts_total,
//	                       stm_tl2_clock_races_total, stm_read_only_commits_total
//	stm_aborts_total       the abort taxonomy rows, one series per reason of
//	                       the Memory's engine with an extra reason label
//	stm_snapshot_rechecked_words_total   the snapshot_rechecked row
//	stm_obs_level          gauge (0=off, 1=counters, 2=hist)
//	stm_<name>_seconds     one histogram per duration row (key <name>_nanos):
//	                       stm_commit_seconds, stm_abort_seconds
//	stm_<key>_words        one histogram per size row (stm_read_set_words, …)
//
// Histogram buckets mirror the engine's log2 bins: le="0","1","3","7",…,
// "+Inf" (bin i holds values in [2^(i-1), 2^i)), converted to seconds for
// the duration rows. The _sum series is a lower-bound estimate computed
// from bucket lower bounds — the engine does not track exact sums — and is
// documented as approximate.

// WriteProm writes one Memory's stats snapshot in Prometheus text format,
// labelled memory=name. It takes a fresh snapshot per call, with
// stm.StatsSnapshot's torn-window caveats.
func WriteProm(w io.Writer, name string, m *stm.Memory) {
	s := m.Stats()
	labels := fmt.Sprintf("memory=%q,engine=%q", name, m.Engine().String())

	abortsTyped := false
	for _, c := range stm.Counters(m.Engine()) {
		if c.Reason != stm.ReasonNone {
			if !abortsTyped {
				fmt.Fprintf(w, "# TYPE stm_aborts_total counter\n")
				abortsTyped = true
			}
			fmt.Fprintf(w, "stm_aborts_total{%s,reason=%q} %d\n", labels, c.Reason.String(), c.Value(&s))
			continue
		}
		metric := "stm_" + c.Key + "_total"
		if c.Key == "snapshot_rechecked" {
			metric = "stm_snapshot_rechecked_words_total"
		}
		fmt.Fprintf(w, "# TYPE %s counter\n%s{%s} %d\n", metric, metric, labels, c.Value(&s))
	}

	fmt.Fprintf(w, "# TYPE stm_obs_level gauge\nstm_obs_level{%s} %d\n",
		labels, uint32(m.ObsLevel()))
	for _, h := range stm.Histograms() {
		if h.Nanos {
			WritePromHist(w, "stm_"+strings.TrimSuffix(h.Key, "_nanos")+"_seconds", labels, h.Value(&s), 1e9)
		} else {
			WritePromHist(w, "stm_"+h.Key+"_words", labels, h.Value(&s), 1)
		}
	}
}

// WritePromHist writes one log2-binned HistogramSnapshot as a Prometheus
// histogram (metric_bucket cumulative series with le upper bounds, an
// approximate lower-bound metric_sum, and metric_count). labels is the
// pre-rendered label body without braces, e.g. `memory="kv",engine="st"`;
// it may be empty. perUnit is how many recorded values make one exported
// unit: 1e9 for a nanosecond histogram exported in seconds, 1 for a count.
// Shared by the stm memory export above and producer collectors (the
// stmserve server metrics) so every histogram on an admin endpoint speaks
// the same bucket layout.
func WritePromHist(w io.Writer, metric, labels string, h stm.HistogramSnapshot, perUnit float64) {
	num := func(v uint64) string { return strconv.FormatFloat(float64(v)/perUnit, 'f', -1, 64) }
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
		fmt.Fprintf(w, "%s_bucket%s %d\n", metric, brace(`le="`+num(le)+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", metric, brace(`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", metric, brace(""), num(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", metric, brace(""), cum)
}
