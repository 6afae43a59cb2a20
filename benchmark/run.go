package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	stm "github.com/stm-go/stm"
)

// Load and noise protocol. A run is a fixed number of segments per
// engine, alternating ST/TL2 so that drift on a shared host lands on both
// engines alike; each segment builds a fresh system, populates it, warms,
// measures, verifies and tears down. summarize says how an engine's
// segment values become the reported one.
const (
	segmentsPerEngine       = 12
	tracedSegmentsPerEngine = 4
	warmShare               = 0.15 // of a segment's measured time
	rungShare               = 0.5  // ladder rung and one-goroutine sub-segment, likewise
	replyTimeout            = 5 * time.Second
	latencySampleEvery      = 16 // lib-map times 1 call in this many
	minP99Samples           = 1000
)

// runConfig is one invocation's parameters.
type runConfig struct {
	w        *workload
	seed     uint64
	segments int // per engine
	measure  time.Duration
	warm     time.Duration
	rung     time.Duration
	clients  int
	trace    bool
	spans    *spanBuffer // nil unless tracing
}

func newRunConfig(w *workload, seed uint64, seconds float64, trace bool) *runConfig {
	measure := time.Duration(seconds / float64(len(engines)*segmentsPerEngine) * float64(time.Second))
	cfg := &runConfig{
		w:        w,
		seed:     seed,
		segments: segmentsPerEngine,
		measure:  measure,
		warm:     time.Duration(warmShare * float64(measure)),
		rung:     time.Duration(rungShare * float64(measure)),
		clients:  runtime.GOMAXPROCS(0),
		trace:    trace,
	}
	if trace {
		cfg.segments = tracedSegmentsPerEngine
		cfg.spans = newSpanBuffer()
	}
	return cfg
}

// worker is the measuring side of one client: a connection on the TCP
// workloads, a goroutine on lib-map. Its buffers are allocated once per
// run so the generator does not allocate while measuring.
type worker struct {
	id  int
	lat []int64 // measured request latencies, ns
	t0  []int64 // traced segments: send-start of each measured request, run clock

	stamps []reqStamp // traced TCP: backing store for the server end's stamps
	traced bool       // this segment is a traced one

	ops       uint64 // verified ops completed while recording
	attempted uint64 // ops sent, every phase
	failed    uint64 // ops that failed verification, every phase
	err       error  // the connection died; the worker stops
}

const maxLatencySamples = 1 << 18

func newWorkers(cfg *runConfig) []*worker {
	ws := make([]*worker, cfg.clients)
	for i := range ws {
		ws[i] = &worker{id: i, lat: make([]int64, 0, maxLatencySamples)}
		if cfg.trace {
			ws[i].t0 = make([]int64, 0, maxLatencySamples)
			if cfg.w.tcp {
				ws[i].stamps = make([]reqStamp, 0, maxLatencySamples)
			}
		}
	}
	return ws
}

func (wk *worker) reset(traced bool) {
	wk.resetSamples()
	wk.attempted, wk.failed, wk.err = 0, 0, nil
	wk.traced = traced
}

// resetSamples forgets what was recorded but keeps the verification
// counts, which cover every phase.
func (wk *worker) resetSamples() {
	wk.lat = wk.lat[:0]
	wk.t0 = wk.t0[:0]
	wk.ops = 0
}

// sample records one measured request.
func (wk *worker) sample(start time.Time, d time.Duration) {
	if len(wk.lat) < cap(wk.lat) {
		wk.lat = append(wk.lat, int64(d))
		if wk.traced {
			wk.t0 = append(wk.t0, int64(start.Sub(clockBase)))
		}
	}
}

// runPhase runs loop on every worker until the deadline and returns the
// phase's wall time: from before the first goroutine starts to after the
// last has finished its final request.
func runPhase(n int, d time.Duration, loop func(i int, deadline time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(i, deadline)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// segResult is one segment's measurements.
type segResult struct {
	setup     time.Duration
	elapsed   time.Duration // the measured phase's wall time
	ops       uint64
	attempted uint64
	failed    uint64
	samples   int     // latency samples behind p50 and p99
	p50, p99  float64 // us
	oneGorOps float64 // lib-map traced: ops/s of the one-goroutine sub-segment
	layer     map[string]float64
}

func (r *segResult) opsPerSec() float64 { return float64(r.ops) / r.elapsed.Seconds() }

// collect folds the workers' counts and latency samples into r.
func (r *segResult) collect(ws []*worker) error {
	n := 0
	for _, wk := range ws {
		n += len(wk.lat)
	}
	lat := make([]int64, 0, n)
	for _, wk := range ws {
		r.ops += wk.ops
		r.attempted += wk.attempted
		r.failed += wk.failed
		lat = append(lat, wk.lat...)
	}
	slices.Sort(lat)
	r.samples = n
	r.p50 = float64(percentile(lat, 0.50)) / 1e3
	r.p99 = float64(percentile(lat, 0.99)) / 1e3
	for _, wk := range ws {
		if wk.err != nil {
			return fmt.Errorf("client %d: %w", wk.id, wk.err)
		}
	}
	if r.ops == 0 {
		return fmt.Errorf("no op completed in the measured window")
	}
	return nil
}

// counters is what the traced run reads at the two quiescent points that
// bracket a measured phase. Everything in it is a public counter of the
// layer it describes.
type counters struct {
	stats   stm.StatsSnapshot
	mem     runtime.MemStats
	cpu     time.Duration
	commits uint64 // stmserve batches committed (Server.Metrics().BatchCommands)
}

func readCounters(mem *stm.Memory, c *counters) {
	c.stats = mem.Stats()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
}

// layerCounters turns the two snapshots into the core.* and runtime.*
// per-layer values of one segment.
func layerCounters(out map[string]float64, eng stm.Engine, a, b *counters, ops uint64, elapsed time.Duration) {
	n := float64(ops)
	attempts := float64(b.stats.Attempts - a.stats.Attempts)
	failures := float64(b.stats.Failures - a.stats.Failures)
	out["core.attempts_per_op"] = attempts / n
	out["core.commits_per_op"] = float64(b.stats.Commits-a.stats.Commits) / n
	if attempts > 0 {
		out["core.abort_ratio"] = failures / attempts
	}
	if eng == stm.ST {
		out["core.helps_per_op"] = float64(b.stats.Helps-a.stats.Helps) / n
		out["core.aborts_st_conflict"] = float64(b.stats.STConflictAborts-a.stats.STConflictAborts) / n
		out["core.aborts_st_helped"] = float64(b.stats.STHelpedAborts-a.stats.STHelpedAborts) / n
	} else {
		out["core.aborts_tl2_read"] = float64(b.stats.TL2ReadAborts-a.stats.TL2ReadAborts) / n
		out["core.aborts_tl2_lock"] = float64(b.stats.TL2LockAborts-a.stats.TL2LockAborts) / n
		out["core.aborts_tl2_validate"] = float64(b.stats.TL2ValidateAborts-a.stats.TL2ValidateAborts) / n
		out["core.tl2_clock_races"] = float64(b.stats.TL2ClockRaces-a.stats.TL2ClockRaces) / n
		out["core.tl2_readonly_commits"] = float64(b.stats.TL2ReadOnlyCommits-a.stats.TL2ReadOnlyCommits) / n
	}
	out["runtime.allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / n
	out["runtime.alloc_bytes_per_op"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / n
	out["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	out["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	cpu := b.cpu - a.cpu
	out["runtime.cpu_us_per_op"] = float64(cpu.Microseconds()) / n
	out["runtime.cpu_util"] = cpu.Seconds() / elapsed.Seconds()
}

// runResult is everything one invocation measured, per engine.
type runResult struct {
	segs   map[stm.Engine][]*segResult // the run's end-to-end segments (untraced)
	traced map[stm.Engine][]*segResult // traced run only
	ladder map[stm.Engine]map[string]float64
	// footprint is what the two lowest rungs replayed.
	footprint footprint
}

// runWorkload executes the whole protocol for one workload.
func runWorkload(cfg *runConfig) (*runResult, error) {
	segment := runLibSegment
	if cfg.w.tcp {
		segment = runTCPSegment
	}
	ws := newWorkers(cfg)
	res := &runResult{
		segs:   make(map[stm.Engine][]*segResult),
		traced: make(map[stm.Engine][]*segResult),
	}
	for i := 0; i < cfg.segments; i++ {
		for _, eng := range engines {
			// A traced run pairs every traced segment with an untraced one
			// (their ratio is the tracing overhead), alternating which goes
			// first.
			modes := []bool{false}
			if cfg.trace {
				modes = []bool{i%2 == 1, i%2 == 0}
			}
			for _, traced := range modes {
				r, err := segment(cfg, eng, i, traced, ws)
				if err != nil {
					return nil, fmt.Errorf("%s segment %d on %s: %w", cfg.w.name, i, eng, err)
				}
				if traced {
					res.traced[eng] = append(res.traced[eng], r)
				} else {
					res.segs[eng] = append(res.segs[eng], r)
				}
				// The segment's Memory is garbage now; collect it here, not
				// inside the next segment's measured window.
				runtime.GC()
			}
		}
	}
	if cfg.trace {
		fp, err := measureFootprint(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s ladder: %w", cfg.w.name, err)
		}
		res.footprint = fp
		res.ladder = make(map[stm.Engine]map[string]float64)
		for _, eng := range engines {
			rungs, err := runLadder(cfg, eng, fp)
			if err != nil {
				return nil, fmt.Errorf("%s ladder on %s: %w", cfg.w.name, eng, err)
			}
			res.ladder[eng] = rungs
		}
	}
	return res, nil
}
