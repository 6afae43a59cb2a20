package simulation

// Machine-readable results and dump-on-violation: the JSONL schema stays
// parseable and complete, and a violated run carries the flight recorder's
// dump beside the replay seed — in the report, in the JSONL record, and
// through the suite wrapper.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/simrand"
	"github.com/stm-go/stm/stmobs"
)

func TestWriteJSONL(t *testing.T) {
	seed := simrand.SeedForTest(t)
	results := []Result{
		RunScenario(Config{
			Engine:   stm.TL2,
			Seed:     seed,
			Duration: 150 * time.Millisecond,
			Workers:  4,
			Faults:   true,
		}, Bank()),
		RunScenario(Config{
			Engine:   stm.ST,
			Seed:     seed,
			Duration: 2 * time.Second, // the violation ends it early
			Workers:  4,
		}, Sanity()),
	}

	var b bytes.Buffer
	if err := WriteJSONL(&b, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}

	var bank, sanity map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &bank); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &sanity); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}

	if bank["scenario"] != "bank" || bank["engine"] != "tl2" || bank["verdict"] != "ok" {
		t.Errorf("bank record = scenario=%v engine=%v verdict=%v", bank["scenario"], bank["engine"], bank["verdict"])
	}
	for _, key := range []string{"seed", "duration_ms", "ops", "checks", "attempts", "commits", "failures", "fault_injectors"} {
		if _, ok := bank[key]; !ok {
			t.Errorf("bank record missing key %q", key)
		}
	}
	if bank["ops"].(float64) == 0 {
		t.Error("bank record: ops = 0, scenario did no work")
	}

	if sanity["verdict"] != "violation" {
		t.Errorf("sanity verdict = %v, want violation", sanity["verdict"])
	}
	if v, ok := sanity["violations"].([]any); !ok || len(v) == 0 {
		t.Error("sanity record carries no violations")
	}
	flight, ok := sanity["flight"].(string)
	if !ok || !strings.Contains(flight, "flight recorder:") {
		t.Errorf("sanity record's flight dump missing or malformed: %q", flight)
	}
}

// TestRecordCarriesStatsMapCounters keeps the JSONL schema in step with
// stmobs.StatsMap: on either engine, every counter StatsMap exports is a
// record key under the same name, carrying the same value.
func TestRecordCarriesStatsMapCounters(t *testing.T) {
	for _, eng := range stm.Engines() {
		m, err := stm.New(8, stm.WithEngine(eng), stm.WithObs(stm.ObsConfig{Level: stm.ObsHistograms}))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteAll([]int{0}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := m.Atomically(func(tx *stm.DTx) error { tx.Read(1); return nil }); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(record(Result{Engine: eng, Stats: m.Stats()}))
		if err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatal(err)
		}
		counters := 0
		for key, v := range stmobs.StatsMap(m) {
			n, ok := v.(uint64)
			if !ok {
				continue // engine/obs_level strings, histogram bins
			}
			counters++
			if _, ok := rec[key]; !ok {
				t.Errorf("%v: record has no key %q", eng, key)
			} else if got, _ := rec[key].(float64); uint64(got) != n {
				t.Errorf("%v: record %s = %v, StatsMap %d", eng, key, rec[key], n)
			}
		}
		if counters < 10 {
			t.Errorf("%v: StatsMap exported only %d counters", eng, counters)
		}
	}
}

// TestViolationCapturesFlightDump pins the dump-on-failure contract at the
// harness level: the first Violatef freezes the flight ring into
// Result.Flight, and WriteReport renders it beside the replay line.
func TestViolationCapturesFlightDump(t *testing.T) {
	r := RunScenario(Config{
		Engine:   stm.ST,
		Seed:     simrand.SeedForTest(t),
		Duration: 2 * time.Second,
		Workers:  4,
	}, Sanity())
	if len(r.Violations) == 0 {
		t.Fatal("planted bug not caught; cannot test the dump")
	}
	if !strings.Contains(r.Flight, "flight recorder:") {
		t.Errorf("Result.Flight = %q, want a flight-recorder dump", r.Flight)
	}
	var b bytes.Buffer
	WriteReport(&b, []Result{r})
	out := b.String()
	if !strings.Contains(out, "replay: stmsim") || !strings.Contains(out, "flight recorder:") {
		t.Errorf("report missing replay seed or flight dump:\n%s", out)
	}
}

// TestSuiteJSONLWriter pins the SuiteConfig.JSONL seam cmd/stmsim -json
// rides on: one record per run, parseable.
func TestSuiteJSONLWriter(t *testing.T) {
	cfg := Smoke()
	cfg.Seed = simrand.SeedForTest(t)
	cfg.Scenarios = []Scenario{} // sanity-only: fast, and exercises verdicts
	cfg.Duration = 2 * time.Second
	var jsonl bytes.Buffer
	cfg.JSONL = &jsonl
	results, ok := RunSuite(cfg)
	if !ok {
		t.Fatal("sanity-only suite failed")
	}
	lines := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	if len(lines) != len(results) {
		t.Fatalf("got %d JSONL lines for %d results", len(lines), len(results))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("line %d not JSON: %v", i, err)
		}
	}
}
