// The harness core: scenario configuration, the per-run environment
// handed to scenarios (memory construction, seeded streams, stop signal,
// op/check/violation accounting), and the single-run driver.

package simulation

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/xrand"
	"github.com/stm-go/stm/stmobs"
)

// Scenario is one whole-system workload. Run starts the scenario's
// goroutines against env, loops them until env.Stopped(), joins them, and
// performs any teardown checks. It returns an error only for
// infrastructure failures (listen failed, allocation failed); invariant
// violations are reported through env.Violatef, which also ends the run.
type Scenario interface {
	Name() string
	Run(env *Env) error
}

// Config parameterizes one scenario run.
type Config struct {
	Engine   stm.Engine    // commit engine for every Memory the run builds
	Seed     uint64        // base seed; every random decision derives from it
	Duration time.Duration // wall-clock run time (violations end runs early)
	Ops      uint64        // if non-zero, the run also ends once this many operations completed
	Workers  int           // worker-goroutine budget; scenarios split it
	Faults   bool          // arm the Parker, storms, churn, and conn kills
	Publish  bool          // stmobs.Publish attached Memories as "stmsim" (for -admin)
}

// maxViolations bounds the recorded messages: the first violation already
// fails the run, later ones are corroboration, and an unbounded slice
// under a hot auditor loop is a memory leak.
const maxViolations = 16

// Env is the per-run environment a Scenario runs inside: it builds the
// run's Memories (engine, observability, and chaos hook applied
// uniformly), hands out seeded random streams, carries the stop signal,
// and accounts operations, invariant checks, and violations.
type Env struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	parker *Parker

	memMu sync.Mutex
	mems  []*stm.Memory

	// flight records engine-level failure events (aborts, validation
	// failures) from every attached Memory; Violatef captures its dump so
	// the report can show the moments before the violation, rendering the
	// scenario's own kinds through describe (nil: raw fields).
	flight   *stmobs.FlightRecorder
	describe func(stmobs.FlightEvent) string

	ops    atomic.Uint64
	checks atomic.Uint64

	vioMu      sync.Mutex
	violations []string
	vioDropped uint64
	flightDump string
}

func newEnv(cfg Config) *Env {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	env := &Env{
		cfg: cfg, ctx: ctx, cancel: cancel,
		flight: stmobs.NewFlightRecorder(256),
	}
	if cfg.Faults {
		env.parker = newParker(cfg.Seed)
	}
	return env
}

// Config returns the run's configuration.
func (e *Env) Config() Config { return e.cfg }

// Workers returns the worker-goroutine budget (always >= 1).
func (e *Env) Workers() int { return e.cfg.Workers }

// FaultsOn reports whether fault injection is armed for this run.
func (e *Env) FaultsOn() bool { return e.parker != nil }

// Ctx is the run's context: cancelled when the duration elapses or a
// violation is recorded. Blocking transactional waits (OrElseContext,
// AtomicallyContext, BQPOP-style parks) must use it so shutdown unparks
// them.
func (e *Env) Ctx() context.Context { return e.ctx }

// Stopped reports whether the run is over. Worker loops poll it.
func (e *Env) Stopped() bool {
	select {
	case <-e.ctx.Done():
		return true
	default:
		return false
	}
}

// Stream returns a random stream derived deterministically from the run
// seed and tag. Distinct tags give decorrelated streams; the same
// (seed, tag) pair replays the same stream.
func (e *Env) Stream(tag uint64) *xrand.RNG {
	return xrand.New(e.cfg.Seed ^ (tag+1)*0x9e3779b97f4a7c15)
}

// NewMemory builds a Memory of the given word size with the run's engine,
// taxonomy counters, and — when faults are armed — the Parker's chaos hook
// attached.
func (e *Env) NewMemory(words int) (*stm.Memory, error) {
	m, err := stm.New(words,
		stm.WithEngine(e.cfg.Engine),
		stm.WithObs(stm.ObsConfig{Level: stm.ObsCounters}),
	)
	if err != nil {
		return nil, err
	}
	e.Attach(m)
	return m, nil
}

// Attach wires a Memory the scenario built elsewhere (e.g. inside an
// stmserve.Server) into the run: taxonomy counters on, the chaos hook
// registered when faults are armed, and its stats folded into the Result.
func (e *Env) Attach(m *stm.Memory) {
	m.Observe(stm.ObsConfig{Level: stm.ObsCounters, Observer: e.flight})
	if e.parker != nil {
		m.SetChaos(e.parker.hook)
	}
	if e.cfg.Publish {
		// Replace-on-republish keeps one stable expvar/Prometheus name
		// across the suite's many short-lived Memories (stmsim -admin).
		_ = stmobs.Publish("stmsim", m)
	}
	e.memMu.Lock()
	e.mems = append(e.mems, m)
	e.memMu.Unlock()
}

// Flight returns the run's flight recorder: scenarios may Record their own
// events into it (producer kinds below 0xFF00), and a violation dumps it.
func (e *Env) Flight() *stmobs.FlightRecorder { return e.flight }

// Op records one completed scenario operation (a transfer, a match, a
// token moved, one network round trip).
func (e *Env) Op() {
	if e.ops.Add(1) == e.cfg.Ops {
		e.cancel()
	}
}

// Checked records one completed invariant check.
func (e *Env) Checked() { e.checks.Add(1) }

// Violatef records an invariant violation and ends the run. Never call it
// from inside a transaction body: bodies run speculatively and may
// observe states that will not commit. Compute the evidence inside the
// transaction, let it commit, then judge it.
func (e *Env) Violatef(format string, args ...any) {
	e.vioMu.Lock()
	if len(e.violations) == 0 {
		// First violation: freeze the flight recorder's view of the moments
		// leading up to it, before teardown traffic overwrites the ring.
		var b strings.Builder
		_ = e.flight.Dump(&b, e.describe)
		e.flightDump = b.String()
	}
	if len(e.violations) < maxViolations {
		e.violations = append(e.violations, fmt.Sprintf(format, args...))
	} else {
		e.vioDropped++
	}
	e.vioMu.Unlock()
	e.cancel()
}

// CountConnKill / CountMapChurn record non-seam fault injections so the
// report can prove each injector actually fired.
func (e *Env) CountConnKill() {
	if e.parker != nil {
		e.parker.connKills.Add(1)
	}
}

func (e *Env) CountMapChurn() {
	if e.parker != nil {
		e.parker.mapChurn.Add(1)
	}
}

// takeViolations snapshots the recorded messages and the flight dump
// captured at the first violation.
func (e *Env) takeViolations() ([]string, string) {
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	out := append([]string(nil), e.violations...)
	if e.vioDropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations dropped", e.vioDropped))
	}
	return out, e.flightDump
}

// sumStats folds the stats of every attached Memory (scenarios typically
// build one; serve attaches the server's) into a single snapshot, counters
// and histograms alike.
func (e *Env) sumStats() stm.StatsSnapshot {
	e.memMu.Lock()
	defer e.memMu.Unlock()
	var out stm.StatsSnapshot
	for _, m := range e.mems {
		out.Add(m.Stats())
	}
	return out
}

// flightDescriber is a Scenario that names the flight-event kinds it
// records, for the violation dump.
type flightDescriber interface {
	describeFlight(stmobs.FlightEvent) string
}

// RunScenario executes one scenario under cfg and reports the outcome.
// It always returns a Result; Result.Err carries infrastructure failures.
func RunScenario(cfg Config, scn Scenario) Result {
	start := time.Now()
	res := Result{
		Scenario: scn.Name(),
		Engine:   cfg.Engine,
		Seed:     cfg.Seed,
	}
	env := newEnv(cfg)
	if d, ok := scn.(flightDescriber); ok {
		env.describe = d.describeFlight
	}
	defer env.cancel()
	timer := time.AfterFunc(env.cfg.Duration, env.cancel)
	defer timer.Stop()
	if env.parker != nil {
		var stormWG sync.WaitGroup
		stormWG.Add(1)
		go func() {
			defer stormWG.Done()
			env.parker.storm(env.ctx)
		}()
		defer stormWG.Wait()
	}

	res.Err = scn.Run(env)
	env.cancel()

	res.Duration = time.Since(start)
	res.Ops = env.ops.Load()
	res.Checks = env.checks.Load()
	res.Violations, res.Flight = env.takeViolations()
	res.Stats = env.sumStats()
	if env.parker != nil {
		res.Faults = env.parker.counts()
	}
	return res
}
