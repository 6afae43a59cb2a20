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

// runRecord is the JSONL schema for one Result.
type runRecord struct {
	Scenario   string `json:"scenario"`
	Engine     string `json:"engine"`
	Policy     string `json:"policy"`
	Seed       uint64 `json:"seed"`
	DurationMS int64  `json:"duration_ms"`
	Verdict    string `json:"verdict"` // "ok", "violation", "error"

	Ops    uint64 `json:"ops"`
	Checks uint64 `json:"checks"`

	// Engine taxonomy (stm.StatsSnapshot scalars; engine-foreign counters
	// stay zero).
	Attempts          uint64 `json:"attempts"`
	Commits           uint64 `json:"commits"`
	Failures          uint64 `json:"failures"`
	Helps             uint64 `json:"helps"`
	STConflictAborts  uint64 `json:"aborts_st_conflict,omitempty"`
	STHelpedAborts    uint64 `json:"aborts_st_helped,omitempty"`
	TL2ReadAborts     uint64 `json:"aborts_tl2_read,omitempty"`
	TL2LockAborts     uint64 `json:"aborts_tl2_lock,omitempty"`
	TL2ValidateAborts uint64 `json:"aborts_tl2_validate,omitempty"`
	TL2ROCommits      uint64 `json:"tl2_read_only_commits,omitempty"`
	TL2ClockRaces     uint64 `json:"tl2_clock_races,omitempty"`
	TL2ClockAdoptions uint64 `json:"tl2_clock_adoptions,omitempty"`

	// Dynamic-transaction counters (stmobs.StatsMap names).
	SnapshotExtensions uint64 `json:"snapshot_extensions"`
	SnapshotRechecked  uint64 `json:"snapshot_rechecked"`
	SnapshotStale      uint64 `json:"snapshot_stale"`
	ReadOnlyCommits    uint64 `json:"read_only_commits"`

	// Fault-injector activity.
	FaultInjectors int               `json:"fault_injectors"`
	FaultParks     map[string]uint64 `json:"fault_parks,omitempty"`
	FaultStorms    uint64            `json:"fault_storms,omitempty"`
	FaultConnKills uint64            `json:"fault_conn_kills,omitempty"`
	FaultMapChurn  uint64            `json:"fault_map_churn,omitempty"`

	// Histogram summaries: total observations plus the log2 bin counts
	// (bin i spans [2^(i-1), 2^i) ticks/words; bin 0 is exactly 0).
	CommitTicks  *histSummary `json:"hist_commit_ticks,omitempty"`
	AbortTicks   *histSummary `json:"hist_abort_ticks,omitempty"`
	ReadSetSize  *histSummary `json:"hist_read_set,omitempty"`
	WriteSetSize *histSummary `json:"hist_write_set,omitempty"`
	TickNanos    uint64       `json:"tick_nanos,omitempty"`

	Violations []string `json:"violations,omitempty"`
	Flight     string   `json:"flight,omitempty"`
	Err        string   `json:"error,omitempty"`
}

type histSummary struct {
	Total uint64   `json:"total"`
	Bins  []uint64 `json:"bins"`
}

func summarize(h stm.HistogramSnapshot) *histSummary {
	total := h.Total()
	if total == 0 {
		return nil
	}
	bins := make([]uint64, len(h.Counts))
	copy(bins, h.Counts[:])
	return &histSummary{Total: total, Bins: bins}
}

// record flattens one Result into the JSONL schema.
func record(r Result) runRecord {
	verdict := "ok"
	if r.Err != nil {
		verdict = "error"
	} else if len(r.Violations) > 0 {
		verdict = "violation"
	}
	s := r.Stats
	rec := runRecord{
		Scenario:   r.Scenario,
		Engine:     r.Engine.String(),
		Policy:     r.Policy,
		Seed:       r.Seed,
		DurationMS: r.Duration.Milliseconds(),
		Verdict:    verdict,
		Ops:        r.Ops,
		Checks:     r.Checks,

		Attempts:          s.Attempts,
		Commits:           s.Commits,
		Failures:          s.Failures,
		Helps:             s.Helps,
		STConflictAborts:  s.STConflictAborts,
		STHelpedAborts:    s.STHelpedAborts,
		TL2ReadAborts:     s.TL2ReadAborts,
		TL2LockAborts:     s.TL2LockAborts,
		TL2ValidateAborts: s.TL2ValidateAborts,
		TL2ROCommits:      s.TL2ReadOnlyCommits,
		TL2ClockRaces:     s.TL2ClockRaces,
		TL2ClockAdoptions: s.TL2ClockAdoptions,

		SnapshotExtensions: s.SnapshotExtensions,
		SnapshotRechecked:  s.SnapshotRechecked,
		SnapshotStale:      s.SnapshotStale,
		ReadOnlyCommits:    s.ReadOnlyCommits,

		FaultInjectors: r.Faults.Injectors(),
		FaultStorms:    r.Faults.Storms,
		FaultConnKills: r.Faults.ConnKills,
		FaultMapChurn:  r.Faults.MapChurn,

		CommitTicks:  summarize(s.CommitTicks),
		AbortTicks:   summarize(s.AbortTicks),
		ReadSetSize:  summarize(s.ReadSetSize),
		WriteSetSize: summarize(s.WriteSetSize),

		Violations: r.Violations,
		Flight:     r.Flight,
	}
	for p, c := range r.Faults.Parks {
		if c == 0 {
			continue
		}
		if rec.FaultParks == nil {
			rec.FaultParks = make(map[string]uint64)
		}
		rec.FaultParks[stm.ChaosPoint(p).String()] = c
	}
	if rec.CommitTicks != nil || rec.AbortTicks != nil {
		rec.TickNanos = uint64(stm.TickInterval.Nanoseconds())
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
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
