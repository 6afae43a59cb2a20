// Machine-readable results: one JSON object per run (JSONL), the format
// stmsim -json writes and the nightly sim-canary uploads as an artifact.
// The schema is flat and additive — dashboards keying on these names can
// rely on them the way /metrics scrapers rely on the Prometheus names.

package simulation

import (
	"encoding/json"
	"io"

	stm "github.com/stm-go/stm"
)

type histSummary struct {
	Total uint64   `json:"total"`
	Bins  []uint64 `json:"bins"`
}

// record flattens one Result into the JSONL schema: the run's identity and
// verdict (scenario, engine, seed, duration_ms, verdict, ops,
// checks); every counter the run's engine maintains, under its table key
// (stm.Counters — the stmobs.StatsMap names); each non-empty histogram as
// hist_<key> {total, bins} (bin i spans [2^(i-1), 2^i) ticks/words; bin 0
// is exactly 0), with tick_nanos beside the tick histograms; the
// fault-injector activity; and, only when present, the violations, the
// flight dump and the error.
func record(r Result) map[string]any {
	verdict := "ok"
	if r.Err != nil {
		verdict = "error"
	} else if len(r.Violations) > 0 {
		verdict = "violation"
	}
	rec := map[string]any{
		"scenario":        r.Scenario,
		"engine":          r.Engine.String(),
		"seed":            r.Seed,
		"duration_ms":     r.Duration.Milliseconds(),
		"verdict":         verdict,
		"ops":             r.Ops,
		"checks":          r.Checks,
		"fault_injectors": r.Faults.Injectors(),
	}
	s := r.Stats
	for _, c := range stm.Counters(r.Engine) {
		rec[c.Key] = c.Value(&s)
	}
	for _, h := range stm.Histograms() {
		if hs := h.Value(&s); hs.Total() != 0 {
			rec["hist_"+h.Key] = histSummary{Total: hs.Total(), Bins: hs.Counts[:]}
			if h.Ticks {
				rec["tick_nanos"] = uint64(stm.TickInterval.Nanoseconds())
			}
		}
	}

	parks := map[string]uint64{}
	for p, c := range r.Faults.Parks {
		if c != 0 {
			parks[stm.ChaosPoint(p).String()] = c
		}
	}
	if len(parks) > 0 {
		rec["fault_parks"] = parks
	}
	for key, v := range map[string]uint64{
		"fault_storms":     r.Faults.Storms,
		"fault_conn_kills": r.Faults.ConnKills,
		"fault_map_churn":  r.Faults.MapChurn,
	} {
		if v != 0 {
			rec[key] = v
		}
	}
	if len(r.Violations) > 0 {
		rec["violations"] = r.Violations
	}
	if r.Flight != "" {
		rec["flight"] = r.Flight
	}
	if r.Err != nil {
		rec["error"] = r.Err.Error()
	}
	return rec
}

// WriteJSONL writes one JSON object per result, newline-delimited.
func WriteJSONL(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		if err := enc.Encode(record(r)); err != nil {
			return err
		}
	}
	return nil
}
