// Command stmbench reproduces the evaluation of Shavit & Touitou's
// "Software Transactional Memory" (PODC 1995) on the repository's simulated
// multiprocessor: every figure and table listed in DESIGN.md §5, and any
// single scenario of the workloads behind them.
//
// Usage:
//
//	stmbench -exp all            # run everything (full sweep, slow)
//	stmbench -exp F1 -quick      # one experiment, reduced sweep
//	stmbench -exp F3 -csv out/   # also write out/F3.csv
//	stmbench -exp run -kind counting -method stm -arch bus -procs 16
//	stmbench -exp run -kind queue -method herlihy -arch net -procs 8 -stall 2
//
// Experiments: T0 protocol footprint (ideal machine), F1/F2 counting
// benchmark (bus/net), F3/F4 queue benchmark (bus/net), T1 STM overhead
// breakdown, F5 preemption (non-blocking advantage), F6 design-choice
// ablation, F7 transaction-size sweep. -exp run is one scenario reported in
// detail, the exploration and debugging companion to the figures.
//
// -duration is always virtual cycles. The host library is measured by the
// benchmark of record (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/stm-go/stm/internal/bench"
	"github.com/stm-go/stm/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	def := bench.DefaultOptions(false)
	fs := flag.NewFlagSet("stmbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id (T0, F1..F7, T1, all), or run for one scenario")
		quick    = fs.Bool("quick", false, "reduced sweep for a fast look")
		duration = fs.Int64("duration", 0, "override virtual cycles per point")
		procs    = fs.String("procs", "", "override processor sweep, e.g. 1,2,4,8 (-exp run: one count, default 8)")
		seed     = fs.Uint64("seed", 0, "override random seed")
		csvDir   = fs.String("csv", "", "directory to write per-experiment CSV files")
		queueCap = fs.Int("queuecap", def.QueueCap, "queue capacity (queue workload)")
		pools    = fs.Int("pools", def.Pools, "resource pools (resalloc workload)")
		k        = fs.Int("k", def.K, "resources per acquisition (resalloc workload)")
		kind     = fs.String("kind", "counting", "-exp run workload: counting, queue, resalloc")
		method   = fs.String("method", "stm", "-exp run method: stm, stm-nohelp, stm-unsorted, herlihy, ttas, mcs")
		arch     = fs.String("arch", "bus", "-exp run architecture: bus, bus-wb, net, ideal")
		stall    = fs.Int("stall", 0, "-exp run: periodically stall this many processors (preemption model)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := bench.DefaultOptions(*quick)
	opt.QueueCap, opt.Pools, opt.K = *queueCap, *pools, *k
	if *duration > 0 {
		opt.Duration = *duration
	}
	if *seed != 0 {
		opt.Seed = *seed
	}
	if *procs != "" {
		list, err := parseProcs(*procs)
		if err != nil {
			return err
		}
		opt.Procs = list
	}

	if strings.ToLower(*exp) == "run" {
		p := 8
		if *procs != "" {
			if len(opt.Procs) != 1 {
				return fmt.Errorf("-exp run takes one processor count, got %q", *procs)
			}
			p = opt.Procs[0]
		}
		spec := bench.Spec{
			Kind:     bench.Kind(*kind),
			Method:   bench.Method(*method),
			Arch:     bench.Arch(*arch),
			Procs:    p,
			Duration: opt.Duration,
			Seed:     opt.Seed,
			QueueCap: opt.QueueCap,
			Pools:    opt.Pools,
			K:        opt.K,
		}
		if *stall > 0 {
			spec.Stall = &sim.StallPlan{Procs: *stall, Period: 10, Duration: spec.Duration / 20}
		}
		return runScenario(spec, out)
	}

	ids := []string{"T0", "F1", "F2", "F3", "F4", "T1", "F5", "F6", "F7"}
	if *exp != "all" {
		ids = []string{strings.ToUpper(*exp)}
	}
	for _, id := range ids {
		table, csv, err := runExperiment(id, opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, table)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n\n", path)
		}
	}
	return nil
}

// runExperiment dispatches one experiment id to its implementation.
func runExperiment(id string, opt bench.Options) (table, csv string, err error) {
	switch id {
	case "F1":
		f, err := bench.Counting(bench.ArchBus, opt)
		return f.Table(), f.CSV(), err
	case "F2":
		f, err := bench.Counting(bench.ArchNet, opt)
		return f.Table(), f.CSV(), err
	case "F3":
		f, err := bench.Queue(bench.ArchBus, opt)
		return f.Table(), f.CSV(), err
	case "F4":
		f, err := bench.Queue(bench.ArchNet, opt)
		return f.Table(), f.CSV(), err
	case "T1":
		d, err := bench.Breakdown(opt)
		return d.Table(), d.CSV(), err
	case "F5":
		f, err := bench.Stalls(opt)
		return f.Table(), f.CSV(), err
	case "F6":
		f, err := bench.Ablation(opt)
		return f.Table(), f.CSV(), err
	case "F7":
		f, err := bench.TxSize(opt)
		return f.Table(), f.CSV(), err
	case "T0":
		d, err := bench.StepCounts(opt)
		return d.Table(), d.CSV(), err
	default:
		return "", "", fmt.Errorf("unknown experiment %q (want T0, F1..F7, T1, all, or run)", id)
	}
}

// runScenario runs one workload spec and reports it in detail: throughput,
// latency, and the method's own counters.
func runScenario(spec bench.Spec, out io.Writer) error {
	res, err := bench.Run(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload    %s / %s / %s, %d processors, %d cycles (seed %d)\n",
		spec.Kind, spec.Method, spec.Arch, spec.Procs, spec.Duration, spec.Seed)
	if spec.Stall != nil {
		fmt.Fprintf(out, "stall plan  %d processors, every %d ops for %d cycles\n",
			spec.Stall.Procs, spec.Stall.Period, spec.Stall.Duration)
	}
	fmt.Fprintf(out, "operations  %d\n", res.Ops)
	fmt.Fprintf(out, "throughput  %.1f ops / 10^6 cycles\n", res.Throughput)
	if res.Ops > 0 {
		fmt.Fprintf(out, "latency     %.0f processor-cycles / op\n",
			float64(spec.Procs)*float64(spec.Duration)/float64(res.Ops))
	}
	keys := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%-11s %.0f\n", k, res.Extra[k])
	}
	return nil
}

func parseProcs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad processor count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty processor sweep")
	}
	return out, nil
}
