// Command stmsim drives the whole-system scenario and chaos harness in the
// simulation package: real goroutines, real structures, a real TCP server,
// seeded fault injection, continuous invariant checks.
//
//	stmsim -suite smoke                  # CI tier, ~30s
//	stmsim -suite canary -duration 10m   # long matrix run
//	stmsim -suite sanity                 # only the planted bug; must be caught
//	stmsim -suite smoke -seed 12345      # replay a failing run
//
// It can also emit machine-readable results and serve the admin endpoints
// while running:
//
//	stmsim -suite canary -json results.jsonl   # one JSON object per run
//	stmsim -suite canary -admin 127.0.0.1:7172 # /metrics, /debug/pprof
//
// -duration is always wall time. The paper's cycle-level simulator is
// cmd/stmbench (its figures, and -exp run for one scenario).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/simulation"
	"github.com/stm-go/stm/stmobs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stmsim", flag.ContinueOnError)
	var (
		suite    = fs.String("suite", "smoke", "harness tier: smoke, canary, sanity")
		engine   = fs.String("engine", "", "restrict to one commit engine (st, tl2)")
		workers  = fs.Int("workers", 4, "worker goroutines per scenario")
		nofaults = fs.Bool("nofaults", false, "disarm fault injection")
		jsonOut  = fs.String("json", "", "write per-run JSONL records to this file")
		admin    = fs.String("admin", "", "admin HTTP listen address (/metrics, /debug/vars, /debug/pprof)")
		duration = fs.Duration("duration", 0, "wall time, like 10m (0: the tier's default)")
		seed     = fs.Uint64("seed", 0, "base seed to replay (unset: fresh, or STM_SIM_SEED)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg simulation.SuiteConfig
	switch *suite {
	case "smoke":
		cfg = simulation.Smoke()
	case "canary":
		cfg = simulation.Canary(*duration)
	case "sanity":
		cfg = simulation.Smoke()
		cfg.Scenarios = []simulation.Scenario{} // only the planted bug
		cfg.Duration = 2 * time.Second
	default:
		return fmt.Errorf("-suite %q: want smoke, canary, or sanity", *suite)
	}
	if *suite != "canary" && *duration > 0 {
		cfg.Duration = *duration
	}
	if *engine != "" {
		e, err := stm.ParseEngine(*engine)
		if err != nil {
			return err
		}
		cfg.Engines = []stm.Engine{e}
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.Seed = *seed
		}
	})
	if *nofaults {
		cfg.Faults = false
		cfg.MinInject = 0
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.JSONL = f
	}
	if *admin != "" {
		cfg.Publish = true // current run's Memory stays visible as "stmsim"
		ln, err := stmobs.ServeAdmin(*admin)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "stmsim: admin on http://%s (/metrics, /debug/vars, /debug/pprof)\n", ln.Addr())
	}
	cfg.Out = os.Stdout
	if _, ok := simulation.RunSuite(cfg); !ok {
		return fmt.Errorf("suite %s failed", *suite)
	}
	return nil
}
