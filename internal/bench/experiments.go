package bench

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/stm-go/stm/internal/sim"
)

// Options parameterizes an experiment run.
type Options struct {
	// Procs is the processor sweep (X axis of the throughput figures).
	Procs []int
	// Duration is the virtual run length per point, in cycles.
	Duration int64
	// Seed drives all randomness; a run is replayable from it.
	Seed uint64
	// QueueCap is the queue benchmark's capacity.
	QueueCap int
	// Pools/K parameterize the resource-allocation workload.
	Pools, K int
}

// DefaultOptions returns the experiment calibration. quick selects a
// reduced sweep for tests and -short runs; the full sweep mirrors the
// paper's 1..64 simulated processors.
func DefaultOptions(quick bool) Options {
	if quick {
		return Options{
			Procs:    []int{1, 2, 4, 8},
			Duration: 200_000,
			Seed:     1995,
			QueueCap: 64,
			Pools:    16,
			K:        3,
		}
	}
	return Options{
		Procs:    []int{1, 2, 4, 8, 16, 24, 32, 48, 64},
		Duration: 1_000_000,
		Seed:     1995,
		QueueCap: 64,
		Pools:    16,
		K:        3,
	}
}

// sweep runs spec-variants over (procs × methods), GOMAXPROCS points at a
// time, and builds one series per method.
func (o Options) sweep(kind Kind, arch Arch, methods []Method) ([]Series, error) {
	series := make([]Series, len(methods))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for mi, method := range methods {
		series[mi] = Series{Label: string(method), Points: make([]Point, len(o.Procs))}
		for pi, procs := range o.Procs {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				out, err := Run(Spec{
					Kind:     kind,
					Method:   method,
					Arch:     arch,
					Procs:    procs,
					Duration: o.Duration,
					Seed:     o.Seed + uint64(procs)*1000 + uint64(mi),
					QueueCap: o.QueueCap,
					Pools:    o.Pools,
					K:        o.K,
				})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s/%s/p=%d: %w", kind, method, procs, err)
					}
					mu.Unlock()
				}
				series[mi].Points[pi] = Point{X: float64(procs), Y: out.Throughput}
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return series, nil
}

// Counting reproduces the counting-benchmark throughput figures: F1 on the
// bus machine, F2 on the network machine.
func Counting(arch Arch, o Options) (Figure, error) {
	series, err := o.sweep(KindCounting, arch, Methods)
	if err != nil {
		return Figure{}, err
	}
	id := "F1"
	if arch == ArchNet {
		id = "F2"
	}
	return Figure{
		ID:     id,
		Title:  fmt.Sprintf("Counting benchmark, %s machine (Shavit–Touitou evaluation)", arch),
		XLabel: "processors",
		YLabel: "throughput (ops / 10^6 cycles)",
		Series: series,
		Notes: []string{
			fmt.Sprintf("duration=%d cycles/point, seed=%d", o.Duration, o.Seed),
		},
	}, nil
}

// Queue reproduces the doubly-linked-queue throughput figures: F3 (bus)
// and F4 (network).
func Queue(arch Arch, o Options) (Figure, error) {
	series, err := o.sweep(KindQueue, arch, Methods)
	if err != nil {
		return Figure{}, err
	}
	id := "F3"
	if arch == ArchNet {
		id = "F4"
	}
	return Figure{
		ID:     id,
		Title:  fmt.Sprintf("Doubly-linked queue benchmark, %s machine (capacity %d)", arch, o.QueueCap),
		XLabel: "processors",
		YLabel: "throughput (ops / 10^6 cycles)",
		Series: series,
		Notes: []string{
			fmt.Sprintf("duration=%d cycles/point, seed=%d, half enqueuers / half dequeuers", o.Duration, o.Seed),
		},
	}, nil
}

// Breakdown reproduces T1: the STM cost/behaviour breakdown at selected
// processor counts on both machines — latency per successful operation,
// failure rate, helping rate, and coherence traffic.
func Breakdown(o Options) (Doc, error) {
	procsList := []int{4, 16, 64}
	if len(o.Procs) > 0 && o.Procs[len(o.Procs)-1] < 64 {
		// Quick mode: use the sweep's extremes.
		procsList = []int{o.Procs[0], o.Procs[len(o.Procs)-1]}
	}
	doc := Doc{
		ID:    "T1",
		Title: "STM overhead breakdown (counting benchmark)",
		Head: []string{
			"arch", "procs", "cycles/op", "lat p50", "lat p95", "failure rate", "helps/commit", "heals/commit", "traffic/op",
		},
		Notes: []string{
			"traffic = bus transactions (bus) or remote operations (net); lat = commit latency in cycles",
			fmt.Sprintf("duration=%d cycles/point, seed=%d", o.Duration, o.Seed),
		},
	}
	for _, arch := range []Arch{ArchBus, ArchNet} {
		for _, procs := range procsList {
			out, err := Run(Spec{
				Kind:     KindCounting,
				Method:   MethodSTM,
				Arch:     arch,
				Procs:    procs,
				Duration: o.Duration,
				Seed:     o.Seed,
			})
			if err != nil {
				return Doc{}, err
			}
			ops := float64(out.Ops)
			if ops == 0 {
				ops = 1
			}
			commits := out.Extra["attempts"] - out.Extra["failures"]
			if commits == 0 {
				commits = 1
			}
			latency := float64(procs) * float64(o.Duration) / ops
			traffic := out.Extra["bus_transactions"]
			if arch == ArchNet {
				traffic = out.Extra["remote_ops"]
			}
			doc.Rows = append(doc.Rows, []string{
				string(arch),
				fmt.Sprintf("%d", procs),
				fmt.Sprintf("%.0f", latency),
				fmt.Sprintf("%.0f", out.Extra["lat_p50"]),
				fmt.Sprintf("%.0f", out.Extra["lat_p95"]),
				fmt.Sprintf("%.3f", out.Extra["failures"]/max(out.Extra["attempts"], 1)),
				fmt.Sprintf("%.3f", out.Extra["helps"]/commits),
				fmt.Sprintf("%.4f", out.Extra["heals"]/commits),
				fmt.Sprintf("%.1f", traffic/ops),
			})
		}
	}
	return doc, nil
}

// Stalls reproduces F5, the non-blocking advantage: counting throughput as
// s processors are periodically preempted mid-operation. X is the number of
// stalled processors.
func Stalls(o Options) (Figure, error) {
	procs := o.Procs[len(o.Procs)-1]
	if procs < 8 {
		procs = 8
	}
	stalledCounts := []int{0, 1, 2, 4}
	methods := []Method{MethodSTM, MethodTTAS, MethodMCS}

	series := make([]Series, len(methods))
	for mi, method := range methods {
		pts := make([]Point, 0, len(stalledCounts))
		for _, s := range stalledCounts {
			spec := Spec{
				Kind:     KindCounting,
				Method:   method,
				Arch:     ArchBus,
				Procs:    procs,
				Duration: o.Duration,
				Seed:     o.Seed,
			}
			if s > 0 {
				spec.Stall = &sim.StallPlan{Procs: s, Period: 10, Duration: o.Duration / 20}
			}
			out, err := Run(spec)
			if err != nil {
				return Figure{}, err
			}
			pts = append(pts, Point{X: float64(s), Y: out.Throughput})
		}
		series[mi] = Series{Label: string(method), Points: pts}
	}
	return Figure{
		ID:     "F5",
		Title:  fmt.Sprintf("Preemption experiment: %d processors, s periodically stalled", procs),
		XLabel: "stalled processors",
		YLabel: "throughput (ops / 10^6 cycles)",
		Series: series,
		Notes: []string{
			fmt.Sprintf("stall: every 10 ops for %d cycles; duration=%d, seed=%d", o.Duration/20, o.Duration, o.Seed),
			"the paper's motivating claim: non-blocking methods tolerate preempted processors",
		},
	}, nil
}

// Ablation reproduces F6: the paper's design choices (helping, ordered
// acquisition) measured on the k-way resource-allocation workload.
func Ablation(o Options) (Figure, error) {
	methods := []Method{
		MethodSTM, MethodSTMNoHelp, MethodSTMUnsorted, MethodMCS,
	}
	series, err := o.sweep(KindResAlloc, ArchBus, methods)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "F6",
		Title:  fmt.Sprintf("Ablation: %d-way resource allocation over %d pools, bus machine", o.K, o.Pools),
		XLabel: "processors",
		YLabel: "throughput (acquire+release / 10^6 cycles)",
		Series: series,
		Notes: []string{
			"stm-nohelp disables cooperative helping; stm-unsorted acquires in random order",
			fmt.Sprintf("duration=%d cycles/point, seed=%d", o.Duration, o.Seed),
		},
	}, nil
}
