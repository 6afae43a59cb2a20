package bench

import (
	"fmt"
	"slices"

	"github.com/stm-go/stm/internal/sim"
)

// Arch selects the architecture cost model.
type Arch string

// Supported architectures. ArchIdeal is the unit-cost machine used by the
// protocol-footprint analysis (every operation costs one cycle); ArchBusWB
// is the bus machine with write-back caches, used for the sensitivity
// analysis of the cache-policy substitution.
const (
	ArchBus   Arch = "bus"
	ArchBusWB Arch = "bus-wb"
	ArchNet   Arch = "net"
	ArchIdeal Arch = "ideal"
)

// Method selects the synchronization protocol under test.
type Method string

// Supported methods. The stm-nohelp and stm-unsorted variants exist for the
// ablation experiment F6.
const (
	MethodSTM         Method = "stm"
	MethodSTMNoHelp   Method = "stm-nohelp"
	MethodSTMUnsorted Method = "stm-unsorted"
	MethodHerlihy     Method = "herlihy"
	MethodTTAS        Method = "ttas"
	MethodMCS         Method = "mcs"
)

// Methods lists every method in canonical order.
var Methods = []Method{MethodSTM, MethodHerlihy, MethodTTAS, MethodMCS}

// Kind selects the benchmark.
type Kind string

// Supported benchmarks.
const (
	KindCounting Kind = "counting"
	KindQueue    Kind = "queue"
	KindResAlloc Kind = "resalloc"
)

// Spec fully describes one benchmark run.
type Spec struct {
	Kind   Kind
	Method Method
	Arch   Arch
	Procs  int
	// Duration is the run length in virtual cycles.
	Duration int64
	// Seed drives all randomness (deterministic replay).
	Seed uint64
	// QueueCap is the queue capacity (KindQueue; default 32).
	QueueCap int
	// Pools and K parameterize KindResAlloc: K distinct pools out of Pools
	// are acquired per operation (defaults 16 and 3).
	Pools, K int
	// Stall optionally injects periodic long delays (experiment F5).
	Stall *sim.StallPlan
}

// Outcome reports one run's results.
type Outcome struct {
	// Ops is the number of completed workload operations.
	Ops int64
	// Throughput is Ops per million cycles.
	Throughput float64
	// Extra carries method-specific counters: attempts, failures, helps,
	// heals and commit latency (STM), sc failures (Herlihy), bus
	// transactions / remote ops / memory ops (by architecture).
	Extra map[string]float64
}

// Run executes the benchmark described by spec. Runs are time-bounded in
// virtual cycles: every processor loops on the workload's operation until
// the machine's clock passes spec.Duration. Each run then checks the final
// shared state against the operations it counted (a processor unwound
// mid-operation may leave one op unaccounted), so every benchmark doubles
// as a correctness test.
func Run(spec Spec) (Outcome, error) {
	if spec.Procs < 1 {
		return Outcome{}, fmt.Errorf("workload: Procs must be ≥ 1, got %d", spec.Procs)
	}
	if spec.Duration <= 0 {
		return Outcome{}, fmt.Errorf("workload: Duration must be positive, got %d", spec.Duration)
	}
	switch spec.Kind {
	case KindCounting:
		return runCounting(spec)
	case KindQueue:
		return runQueue(spec)
	case KindResAlloc:
		return runResAlloc(spec)
	default:
		return Outcome{}, fmt.Errorf("workload: unknown kind %q", spec.Kind)
	}
}

// machine builds the simulated machine for spec over `words` of memory.
func machine(spec Spec, words int) (*sim.Machine, error) {
	var model sim.CostModel
	switch spec.Arch {
	case ArchBus:
		model = sim.NewBusModel(spec.Procs, words, sim.DefaultBusConfig())
	case ArchBusWB:
		model = sim.NewBusModel(spec.Procs, words, sim.WriteBackBusConfig())
	case ArchNet:
		model = sim.NewNetModel(spec.Procs, sim.DefaultNetConfig())
	case ArchIdeal:
		model = sim.NewIdealModel()
	default:
		return nil, fmt.Errorf("workload: unknown arch %q", spec.Arch)
	}
	return sim.NewMachine(sim.Config{
		Procs:   spec.Procs,
		Words:   words,
		Model:   model,
		Seed:    spec.Seed,
		Jitter:  1,
		MaxTime: spec.Duration,
		Stall:   spec.Stall,
	})
}

// loop runs step over and over on every processor of m until the machine
// stops at spec.Duration, and returns how many steps reported a completed
// operation. The machine runs one processor at a time, so the shared count
// needs no locking.
func loop(spec Spec, m *sim.Machine, step func(p *sim.Proc) bool) (int64, error) {
	var ops int64
	progs := make([]sim.Program, spec.Procs)
	for i := range progs {
		progs[i] = func(p *sim.Proc) {
			for {
				if step(p) {
					ops++
				}
			}
		}
	}
	_, err := m.Run(progs)
	return ops, err
}

// outcome assembles a run's outcome, adding the architecture's traffic
// counter to extra.
func outcome(spec Spec, m *sim.Machine, ops int64, extra map[string]float64) Outcome {
	if extra == nil {
		extra = map[string]float64{}
	}
	switch c := m.Model().(type) {
	case *sim.BusModel:
		extra["bus_transactions"] = float64(c.BusTransactions())
	case *sim.NetModel:
		extra["remote_ops"] = float64(c.RemoteOps())
	case *sim.IdealModel:
		extra["mem_ops"] = float64(c.Ops())
	}
	return Outcome{
		Ops:        ops,
		Throughput: float64(ops) / float64(spec.Duration) * 1e6,
		Extra:      extra,
	}
}

// newSTM places an STM of dataWords words for spec's method (the paper's
// protocol or one of its ablations) and builds its machine.
func newSTM(spec Spec, dataWords, maxK int, ops []sim.OpFunc) (*sim.STM, *sim.Machine, error) {
	var v sim.Variant
	switch spec.Method {
	case MethodSTMNoHelp:
		v.NoHelping = true
	case MethodSTMUnsorted:
		v.Unsorted = true
	}
	s, err := sim.NewSTM(sim.STMConfig{Procs: spec.Procs, DataWords: dataWords, MaxK: maxK, Ops: ops, Variant: v})
	if err != nil {
		return nil, nil, err
	}
	m, err := machine(spec, s.Words())
	return s, m, err
}

// stmExtra reports an STM run's protocol counters and its commit-latency
// percentiles.
func stmExtra(s *sim.STM) map[string]float64 {
	st := s.Stats()
	return map[string]float64{
		"attempts": float64(st.Attempts),
		"failures": float64(st.Failures),
		"helps":    float64(st.Helps),
		"heals":    float64(st.Heals),
		"lat_p50":  percentile(s.Latencies(), 50),
		"lat_p95":  percentile(s.Latencies(), 95),
	}
}

// herlihyExtra reports a Herlihy run's counters.
func herlihyExtra(o *sim.Herlihy) map[string]float64 {
	st := o.Stats()
	return map[string]float64{
		"attempts": float64(st.Attempts),
		"failures": float64(st.Failures),
	}
}

// newLock builds the lock method's lock, at address 0.
func newLock(spec Spec) sim.Lock {
	if spec.Method == MethodTTAS {
		return sim.TTAS{}
	}
	return sim.NewMCS(spec.Procs)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs,
// interpolating linearly between the closest ranks, or 0 when xs is empty.
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// slackCheck verifies |got-want| ≤ slack, used by the post-run invariant
// checks (processors unwound mid-operation contribute up to one op each).
func slackCheck(what string, got, want, slack int64) error {
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > slack {
		return fmt.Errorf("workload: %s = %d, want %d (±%d)", what, got, want, slack)
	}
	return nil
}
