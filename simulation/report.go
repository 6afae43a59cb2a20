// Run results and the human-readable report: per-scenario op counts, the
// abort taxonomy from the observability seam, fault-injector activity,
// and invariant verdicts — with the replay seed front and center when
// anything failed.

package simulation

import (
	"fmt"
	"io"
	"strings"
	"time"

	stm "github.com/stm-go/stm"
)

// Result is the outcome of one scenario run.
type Result struct {
	Scenario string
	Engine   stm.Engine
	Seed     uint64
	Duration time.Duration

	Ops    uint64 // completed scenario operations
	Checks uint64 // completed invariant checks

	Faults     FaultCounts
	Stats      stm.StatsSnapshot
	Violations []string
	Flight     string // flight-recorder dump captured at the first violation
	Err        error  // infrastructure failure, not an invariant verdict
}

// OK reports whether the run completed with every invariant intact.
func (r Result) OK() bool { return r.Err == nil && len(r.Violations) == 0 }

// WriteReport renders results as the final human-readable report.
func WriteReport(w io.Writer, results []Result) {
	for _, r := range results {
		verdict := "OK"
		if r.Err != nil {
			verdict = "ERROR"
		} else if len(r.Violations) > 0 {
			verdict = "VIOLATION"
		}
		fmt.Fprintf(w, "%-9s engine=%-4s %9s  ops=%-9d checks=%-7d %s\n",
			r.Scenario, r.Engine, r.Duration.Round(time.Millisecond),
			r.Ops, r.Checks, verdict)
		s := r.Stats
		fmt.Fprintf(w, "          commits=%d failures=%d (%.1f%% fail)",
			s.Commits, s.Failures, 100*s.FailureRate())
		switch r.Engine {
		case stm.ST:
			fmt.Fprintf(w, " helps=%d conflict=%d helped=%d validate=%d\n",
				s.Helps, s.STConflictAborts, s.STHelpedAborts, s.STValidateAborts)
		case stm.TL2:
			fmt.Fprintf(w, " read=%d lock=%d validate=%d ro-commits=%d\n",
				s.TL2ReadAborts, s.TL2LockAborts, s.TL2ValidateAborts, s.TL2ReadOnlyCommits)
		default:
			fmt.Fprintln(w)
		}
		if f := r.Faults; f.Total() > 0 {
			fmt.Fprintf(w, "          faults[%d injectors]:", f.Injectors())
			for p, c := range f.Parks {
				if c > 0 {
					fmt.Fprintf(w, " %s=%d", stm.ChaosPoint(p), c)
				}
			}
			if f.Storms > 0 {
				fmt.Fprintf(w, " storms=%d", f.Storms)
			}
			if f.ConnKills > 0 {
				fmt.Fprintf(w, " conn-kills=%d", f.ConnKills)
			}
			if f.MapChurn > 0 {
				fmt.Fprintf(w, " map-churn=%d", f.MapChurn)
			}
			fmt.Fprintln(w)
		}
		if r.Err != nil {
			fmt.Fprintf(w, "          error: %v\n", r.Err)
		}
		for _, v := range r.Violations {
			fmt.Fprintf(w, "          violation: %s\n", v)
		}
		if !r.OK() {
			fmt.Fprintf(w, "          replay: stmsim -suite ... -seed %d (or STM_SIM_SEED=%d)\n",
				r.Seed, r.Seed)
			if r.Flight != "" {
				for _, line := range strings.Split(strings.TrimRight(r.Flight, "\n"), "\n") {
					fmt.Fprintf(w, "          %s\n", line)
				}
			}
		}
	}
}
