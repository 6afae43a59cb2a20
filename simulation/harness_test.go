package simulation

import (
	"bytes"
	"strings"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/simrand"
)

// TestSmokeSuite runs the real CI tier end to end, shortened: every
// scenario on both engines with faults armed, the injector floor
// enforced, and the sanity break required caught. This is the test the
// ci.yml sim-smoke job leans on.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system suite: seconds of wall clock")
	}
	cfg := Smoke()
	cfg.Seed = simrand.SeedForTest(t)
	cfg.Duration = 700 * time.Millisecond
	var out bytes.Buffer
	cfg.Out = &out
	results, ok := RunSuite(cfg)
	if !ok {
		t.Fatalf("suite failed:\n%s", out.String())
	}
	wantRuns := len(cfg.Engines) * (len(Scenarios()) + 1) // + sanity per engine
	if len(results) != wantRuns {
		t.Fatalf("got %d results, want %d", len(results), wantRuns)
	}
	for _, r := range results {
		if r.Scenario == "sanity" {
			if len(r.Violations) == 0 {
				t.Errorf("sanity on %s: planted bug not caught", r.Engine)
			}
			continue
		}
		if !r.OK() {
			t.Errorf("%s on %s: err=%v violations=%v", r.Scenario, r.Engine, r.Err, r.Violations)
		}
		if r.Ops == 0 || r.Checks == 0 {
			t.Errorf("%s on %s: ops=%d checks=%d — scenario did no work", r.Scenario, r.Engine, r.Ops, r.Checks)
		}
		if r.Faults.Injectors() < cfg.MinInject {
			t.Errorf("%s on %s: only %d injectors fired (%+v), want >= %d",
				r.Scenario, r.Engine, r.Faults.Injectors(), r.Faults, cfg.MinInject)
		}
	}
	if !strings.Contains(out.String(), "replay:") {
		t.Error("report does not surface the replay seed for the sanity violation")
	}
}

// TestRunEndsAtOpCount pushes one scenario through both engines to an
// operation count, not a time: on a loaded host under -race the scenario's
// set-up alone can outlast any budget short enough to be cheap, and "no
// operations completed" then says nothing about the engine. The duration is
// only the deadline for a run that really is stuck.
func TestRunEndsAtOpCount(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system suite: seconds of wall clock")
	}
	const ops = 2000
	seed := simrand.SeedForTest(t)
	for _, eng := range stm.Engines() {
		r := RunScenario(Config{
			Engine:   eng,
			Seed:     seed,
			Duration: time.Minute,
			Ops:      ops,
			Workers:  4,
		}, Bank())
		if !r.OK() {
			t.Errorf("engine %s: err=%v violations=%v", eng, r.Err, r.Violations)
		}
		if r.Ops < ops {
			t.Errorf("engine %s: %d operations completed in %v, want %d", eng, r.Ops, r.Duration, ops)
		}
	}
}

// TestSanityScenarioCaught pins the harness's own eyesight without the
// suite wrapper: the planted two-transaction bug must surface as a
// recorded violation on both engines, and the flight dump frozen at the
// violation must hold the events leading up to it.
func TestSanityScenarioCaught(t *testing.T) {
	seed := simrand.SeedForTest(t)
	for _, eng := range stm.Engines() {
		r := RunScenario(Config{
			Engine:   eng,
			Seed:     seed,
			Duration: 2 * time.Second, // violation ends the run far earlier
			Workers:  4,
		}, Sanity())
		if r.Err != nil {
			t.Fatalf("engine %s: %v", eng, r.Err)
		}
		if len(r.Violations) == 0 {
			t.Errorf("engine %s: planted bug not caught", eng)
		}
		if !strings.Contains(r.Flight, "\n  ") {
			t.Errorf("engine %s: violation's flight dump retains no event:\n%s", eng, r.Flight)
		}
		if !strings.Contains(r.Flight, " debit worker=") {
			t.Errorf("engine %s: violation's flight dump does not name the scenario's debits:\n%s", eng, r.Flight)
		}
	}
}

// TestParkerDecisionStreamDeterministic pins the replay contract at the
// injector level: the same seed yields the same park/no-park decision
// sequence with the same stall lengths.
func TestParkerDecisionStreamDeterministic(t *testing.T) {
	decisions := func(seed uint64) []uint64 {
		p := newParker(seed)
		var out []uint64
		for i := 0; i < 4096; i++ {
			h := splitmix(p.seed ^ p.seq.Add(1))
			if h%parkDenom == 0 {
				out = append(out, uint64(i)<<32|(h>>32)%uint64(parkSpan))
			}
		}
		return out
	}
	a, b := decisions(99), decisions(99)
	if len(a) == 0 {
		t.Fatal("no parks in 4096 decisions; parkDenom mistuned")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different decision counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	if c := decisions(100); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("distinct seeds produced identical decision streams")
		}
	}
}

// TestSanityOnlySuiteMode pins the -suite sanity contract: an explicitly
// empty scenario slice runs only the planted bug, and the suite passes
// exactly because the bug was caught.
func TestSanityOnlySuiteMode(t *testing.T) {
	cfg := Smoke()
	cfg.Seed = simrand.SeedForTest(t)
	cfg.Scenarios = []Scenario{}
	cfg.Duration = 2 * time.Second
	results, ok := RunSuite(cfg)
	if !ok {
		t.Fatal("sanity-only suite failed")
	}
	for _, r := range results {
		if r.Scenario != "sanity" {
			t.Fatalf("unexpected scenario %q in sanity-only mode", r.Scenario)
		}
	}
	if len(results) != len(cfg.Engines) {
		t.Fatalf("got %d results, want %d", len(results), len(cfg.Engines))
	}
}
