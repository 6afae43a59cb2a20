// Suite assembly: the scenario roster, the smoke and canary
// configurations, and the driver that runs the matrix, renders the
// report, and enforces the suite-level gates — every real invariant
// intact, enough injectors demonstrably active, and the sanity break
// caught.

package simulation

import (
	"fmt"
	"io"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/simrand"
)

// Scenarios returns the real (invariant-holding) scenario roster.
func Scenarios() []Scenario {
	return []Scenario{Bank(), Orders(), Mesh(), Serve()}
}

// SuiteConfig parameterizes a matrix run: every scenario under every
// engine, faults armed, one base seed.
type SuiteConfig struct {
	Engines   []stm.Engine
	Scenarios []Scenario
	Seed      uint64        // 0: resolve via simrand (STM_SIM_SEED or fresh)
	Duration  time.Duration // per scenario run
	Workers   int
	Faults    bool
	Sanity    bool      // run the broken scenario; REQUIRE it caught
	MinInject int       // per faulted run, least distinct injectors that must fire
	Out       io.Writer // progress and report; nil discards
	JSONL     io.Writer // machine-readable per-run records (WriteJSONL); nil skips
	Publish   bool      // keep the current run's Memories Published as "stmsim"
}

// Smoke is the CI tier: every scenario on both engines with faults armed, short enough to ride on every PR (about 15s
// wall plus race overhead), strict enough to demand three injectors per
// run and a caught sanity break.
func Smoke() SuiteConfig {
	return SuiteConfig{
		Engines:   stm.Engines(),
		Scenarios: Scenarios(),
		Duration:  1200 * time.Millisecond,
		Workers:   4,
		Faults:    true,
		Sanity:    true,
		MinInject: 3,
	}
}

// Canary is the long tier: the engine × scenario matrix, the total
// duration split evenly across runs. Meant for nightly / on-demand runs
// (stmsim -suite canary -duration 10m).
func Canary(total time.Duration) SuiteConfig {
	cfg := Smoke()
	runs := len(cfg.Engines)*len(cfg.Scenarios) + len(cfg.Engines) // + sanity
	if total <= 0 {
		total = 10 * time.Minute
	}
	cfg.Duration = total / time.Duration(runs)
	return cfg
}

// RunSuite executes the matrix and returns every Result plus the overall
// verdict. The verdict is false when any real scenario violated an
// invariant or errored, when a faulted run could not demonstrate
// MinInject distinct injectors, or when the sanity scenario's deliberate
// break went UNCAUGHT.
func RunSuite(cfg SuiteConfig) ([]Result, bool) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	// nil means "the full roster"; an explicitly empty slice means "no
	// real scenarios" (the -suite sanity mode runs only the planted bug).
	if cfg.Scenarios == nil {
		cfg.Scenarios = Scenarios()
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = stm.Engines()
	}
	seed := cfg.Seed
	if seed == 0 {
		var replay bool
		seed, replay = simrand.Pick()
		if replay {
			fmt.Fprintf(out, "replaying seed %d from %s\n", seed, simrand.EnvSeed)
		}
	}
	fmt.Fprintf(out, "suite: %d scenarios × %d engines, %v per run, faults=%v, seed=%d\n",
		len(cfg.Scenarios), len(cfg.Engines), cfg.Duration, cfg.Faults, seed)

	var results []Result
	ok := true
	run := func(scn Scenario, eng stm.Engine) Result {
		fmt.Fprintf(out, "run %-9s engine=%-4s ...\n", scn.Name(), eng)
		return RunScenario(Config{
			Engine:   eng,
			Seed:     seed,
			Duration: cfg.Duration,
			Workers:  cfg.Workers,
			Faults:   cfg.Faults,
			Publish:  cfg.Publish,
		}, scn)
	}
	for _, eng := range cfg.Engines {
		for _, scn := range cfg.Scenarios {
			r := run(scn, eng)
			results = append(results, r)
			if !r.OK() {
				ok = false
			}
			if cfg.Faults && r.Err == nil && r.Faults.Injectors() < cfg.MinInject {
				ok = false
				r.Violations = append(r.Violations, fmt.Sprintf(
					"harness: only %d distinct fault injectors fired, want >= %d",
					r.Faults.Injectors(), cfg.MinInject))
				results[len(results)-1] = r
			}
		}
		// Sanity rides once per engine: its run must end in a REPORTED
		// violation, or the suite's auditors are decorative and everything
		// above proved nothing.
		if cfg.Sanity {
			r := run(Sanity(), eng)
			results = append(results, r)
			if r.Err != nil || len(r.Violations) == 0 {
				ok = false
				r.Violations = append(r.Violations,
					"harness: sanity break NOT caught — the invariant checkers are blind")
				results[len(results)-1] = r
			}
		}
	}

	fmt.Fprintln(out)
	WriteReport(out, results)
	if cfg.JSONL != nil {
		if err := WriteJSONL(cfg.JSONL, results); err != nil {
			fmt.Fprintf(out, "jsonl: write failed: %v\n", err)
			ok = false
		}
	}
	if cfg.Sanity {
		fmt.Fprintln(out, "note: sanity VIOLATION entries are the expected outcome — the harness must catch its own planted bug")
	}
	if ok {
		fmt.Fprintf(out, "suite PASS (seed %d)\n", seed)
	} else {
		fmt.Fprintf(out, "suite FAIL — replay with -seed %d or %s=%d\n", seed, simrand.EnvSeed, seed)
	}
	return results, ok
}
