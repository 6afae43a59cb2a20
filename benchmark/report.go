package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	stm "github.com/stm-go/stm"
)

// envInfo is where and how a result was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentEnv() envInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  commit,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// workloadResult is one invocation's result as -json stores it.
type workloadResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Segments int     `json:"segments_per_engine"`
	Clients  int     `json:"clients"`
	Trace    bool    `json:"trace"`
	Env      envInfo `json:"env"`

	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// FailRatio and LatSamples are keyed by engine. LatSamples is the
	// smallest per-segment latency sample count: lat_p99_us needs
	// minP99Samples of them to have ten samples beyond it.
	FailRatio  map[string]float64 `json:"fail_ratio"`
	LatSamples map[string]int     `json:"lat_samples"`

	// EndToEnd holds every end-to-end metric. In a traced run it comes
	// from the untraced reference segments and is informational only.
	EndToEnd map[string]summary `json:"end_to_end"`
	// Latency holds the request-latency percentiles (the names in
	// latencies): reported with every run but not gated, see README.md.
	Latency map[string]summary `json:"latency"`
	// PerLayer holds every per-layer metric; traced runs only.
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

// resultFile is what -json writes: one entry per workload, so that four
// invocations sharing a file build one result set.
type resultFile struct {
	Workloads map[string]*workloadResult `json:"workloads"`
}

// buildResult reduces a run's segments to the named metrics.
func buildResult(cfg *runConfig, seconds float64, res *runResult) *workloadResult {
	out := &workloadResult{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: seconds,
		Segments: cfg.segments, Clients: cfg.clients, Trace: cfg.trace, Env: currentEnv(),
		FailRatio: map[string]float64{}, LatSamples: map[string]int{},
		EndToEnd: map[string]summary{}, Latency: map[string]summary{},
	}
	e2e := func(name string, segs []float64) {
		d := findMetric(endToEnd, name)
		out.EndToEnd[name] = summarize(d.Unit, d.Better, segs)
	}
	for _, eng := range engines {
		var ops, p50, p99 []float64
		var attempted, failed uint64
		samples := -1
		for _, r := range slices.Concat(res.segs[eng], res.traced[eng]) {
			attempted += r.attempted
			failed += r.failed
		}
		for _, r := range res.segs[eng] {
			ops = append(ops, r.opsPerSec())
			p50 = append(p50, r.p50)
			p99 = append(p99, r.p99)
			if samples < 0 || r.samples < samples {
				samples = r.samples
			}
		}
		e2e("ops_per_s."+eng.String(), ops)
		out.Latency["lat_p50_us."+eng.String()] = summarize("us", "", p50)
		out.Latency["lat_p99_us."+eng.String()] = summarize("us", "", p99)
		out.LatSamples[eng.String()] = samples
		out.FailRatio[eng.String()] = float64(failed) / float64(attempted)
		out.Attempted += attempted
		out.Failed += failed
	}
	// One set-up value per pair of adjacent segments, so that the two
	// engines' set-up costs weigh the same whatever their difference.
	var setup []float64
	for i := range res.segs[stm.ST] {
		setup = append(setup, (res.segs[stm.ST][i].setup+res.segs[stm.TL2][i].setup).Seconds()/2)
	}
	e2e("setup_s", setup)
	out.Correct = out.Failed == 0
	if cfg.trace {
		out.PerLayer = buildPerLayer(cfg, res)
	}
	return out
}

// buildPerLayer reduces the traced segments, the reference segments and
// the ladder to the per-layer metrics.
func buildPerLayer(cfg *runConfig, res *runResult) map[string]summary {
	out := map[string]summary{}
	for _, eng := range engines {
		vals := map[string][]float64{}
		for _, r := range res.traced[eng] {
			for k, v := range r.layer {
				vals[k] = append(vals[k], v)
			}
		}
		for k, v := range res.ladder[eng] {
			vals[k] = []float64{v}
		}
		if cfg.w.tcp && cfg.w.depth == 1 {
			// What is left of the handling time once Feed's own cost is taken
			// out: the reader→feeder hand-off. Only a depth-1 request is short
			// enough for the difference to be more than noise.
			feedUS := res.ladder[eng]["stmserve.feed_ns_per_op"] / 1e3
			vals["stmserve.handoff_us"] = []float64{median(vals["stmserve.handle_us"]) - feedUS}
		}
		var ref, traced []float64
		for _, r := range res.segs[eng] {
			ref = append(ref, r.opsPerSec())
			if r.oneGorOps > 0 {
				vals["stmds.scale_ratio"] = append(vals["stmds.scale_ratio"], r.opsPerSec()/r.oneGorOps)
			}
		}
		for _, r := range res.traced[eng] {
			traced = append(traced, r.opsPerSec())
		}
		vals["stmobs.trace_overhead_ratio"] = []float64{median(traced) / median(ref)}
		for _, r := range res.segs[eng] {
			vals["client.lat_p50_us"] = append(vals["client.lat_p50_us"], r.p50)
			vals["client.lat_p99_us"] = append(vals["client.lat_p99_us"], r.p99)
		}

		for k, v := range vals {
			name := k + "." + eng.String()
			if findMetric(perLayer, name) == nil {
				name = k // an engine-specific counter: no suffix
			}
			out[name] = summarize(findMetric(perLayer, name).Unit, "", v)
		}
	}
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = summarize(d.Unit, "", []float64{0}) // does not apply to this workload
		}
	}
	return out
}

// printResult writes every metric by name with its unit.
func printResult(w io.Writer, cfg *runConfig, r *workloadResult, res *runResult) {
	fmt.Fprintf(w, "workload %s: %s\n", r.Workload, cfg.w.why)
	fmt.Fprintf(w, "  seed=%d seconds=%g segments=%d per engine x %v measured (+%v warm-up) clients=%d closed loop, one op = one %s, %d per request\n",
		r.Seed, r.Seconds, r.Segments, cfg.measure, cfg.warm, r.Clients, cfg.w.opUnit, cfg.w.depth)
	fmt.Fprintf(w, "  nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.GitCommit)
	if r.Trace {
		fmt.Fprintf(w, "end-to-end, from the traced run's %d untraced reference segments per engine (informational; not this run's result):\n", r.Segments)
	} else {
		fmt.Fprintf(w, "end-to-end (the better quartile of an engine's segments; median and iqr = q3-q1 over the same segments):\n")
	}
	line := func(name string, s summary) {
		rel := 0.0
		if s.Median != 0 {
			rel = 100 * s.IQR / s.Median
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s.median %.4f %s.iqr %.4f (%.1f %%)\n",
			name, s.Value, s.Unit, name, s.Median, name, s.IQR, rel)
	}
	for _, d := range endToEnd {
		line(d.Name, r.EndToEnd[d.Name])
	}
	fmt.Fprintf(w, "not gated (median over the same segments):\n")
	for _, d := range latencies {
		line(d.Name, r.Latency[d.Name])
	}
	for _, e := range engines {
		eng := e.String()
		fmt.Fprintf(w, "  %-30s %14d %-6s (smallest segment; a p99 wants >= %d)\n",
			"lat_samples."+eng, r.LatSamples[eng], "count", minP99Samples)
		fmt.Fprintf(w, "  %-30s %14.6f %-6s\n", "fail_ratio."+eng, r.FailRatio[eng], "ratio")
	}
	fmt.Fprintf(w, "  checks: %d ops attempted, %d failed\n", r.Attempted, r.Failed)
	if !r.Trace {
		return
	}
	fmt.Fprintf(w, "per-layer (median over %d traced segments per engine; ladder rungs are single %v runs; 0 = does not apply):\n",
		r.Segments, cfg.rung)
	for _, d := range perLayer {
		line(d.Name, r.PerLayer[d.Name])
	}
	printBudget(w, cfg, r, res)
}

// printBudget prints where one request's time goes, per engine: the
// client-observed spans first, then the ladder's self times (a rung minus
// the rung below it), each in ns per request and as a share of the traced
// median latency.
func printBudget(w io.Writer, cfg *runConfig, r *workloadResult, res *runResult) {
	depth := float64(cfg.w.depth)
	for _, eng := range engines {
		e := "." + eng.String()
		var p50s []float64
		for _, s := range res.traced[eng] {
			p50s = append(p50s, s.p50)
		}
		p50 := median(p50s) * 1e3 // ns
		fmt.Fprintf(w, "budget %s on %s: one request = %g ops, traced lat_p50 = %.0f ns; a commit spans %d words and 1 in %d changes %d of them\n",
			r.Workload, eng, depth, p50, res.footprint.words, res.footprint.writeEvery, res.footprint.writeWords)
		row := func(name string, ns float64) {
			fmt.Fprintf(w, "  %-34s %12.0f ns %6.1f %%\n", name, ns, 100*ns/p50)
		}
		v := func(name string) float64 { return r.PerLayer[name+e].Value }
		if cfg.w.tcp {
			sum := 0.0
			for _, name := range []string{"tcp.in_us", "stmserve.handle_us", "tcp.write_us", "tcp.out_us"} {
				row("span "+strings.TrimSuffix(name, "_us"), v(name)*1e3)
				sum += v(name) * 1e3
			}
			row("span children, summed", sum)
			if cfg.w.depth == 1 {
				row("  of handle: stmserve.handoff", v("stmserve.handoff_us")*1e3)
			}
		}
		feed, batch := v("stmserve.feed_ns_per_op")*depth, v("stmds.batch_ns_per_op")*depth
		atomically, attempt := v("stm.atomically_ns")*depth, v("core.attempt_ns")*depth
		if cfg.w.tcp {
			row("self stmserve (feed - stmds.batch)", feed-batch)
		}
		row("self stmds (batch - stm.atomically)", batch-atomically)
		row("self stm (atomically - core.attempt)", atomically-attempt)
		row("self core (attempt)", attempt)
	}
}

// finalLine is the last line of standard output: the contract with the
// driver.
func finalLine(r *workloadResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	src := r.EndToEnd
	if r.Trace {
		src = r.PerLayer
	}
	for name, s := range src {
		metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		// A NaN or an infinity: some layer counted nothing in a window.
		return "", fmt.Errorf("result is not reportable: %w", err)
	}
	return string(b), nil
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// mergeResult stores r in the result file at path, replacing any earlier
// result of the same workload and keeping the others.
func mergeResult(path string, r *workloadResult) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	if f.Workloads == nil {
		f.Workloads = map[string]*workloadResult{}
	}
	f.Workloads[r.Workload] = r
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareResults reports, per workload and end-to-end metric, whether b
// is within the metric's bound of a, worse, or unresolved: the segments
// of a run spread wider than the bound (their IQR over their median) and
// the two runs' quartile ranges overlap, so the data cannot tell. It
// returns how many came out worse.
func compareResults(w io.Writer, a, b *resultFile) (worse int, err error) {
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s  %s\n", "workload", "metric", "base (a)", "b", "b/a", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Trace || rb.Trace {
			return worse, fmt.Errorf("%s: a traced run's end-to-end numbers are not a result to compare", wl.name)
		}
		for _, d := range endToEnd {
			sa, sb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			if sa.Value == 0 {
				return worse, fmt.Errorf("%s %s: base value is 0", wl.name, d.Name)
			}
			change := (sb.Value - sa.Value) / sa.Value
			if d.Better == "higher" {
				change = -change
			}
			verdict := "within bound"
			switch {
			case (sa.IQR/sa.Median > d.Bound || sb.IQR/sb.Median > d.Bound) && sa.Q1 <= sb.Q3 && sb.Q1 <= sa.Q3:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %9.4f  %s (bound %.2f, iqr a %.1f %% b %.1f %%)\n",
				wl.name, d.Name, sa.Value, sb.Value, sb.Value/sa.Value, verdict,
				d.Bound, 100*sa.IQR/sa.Median, 100*sb.IQR/sb.Median)
		}
		for _, d := range latencies {
			sa, sb := ra.Latency[d.Name], rb.Latency[d.Name]
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %9.4f  not gated (iqr a %.1f %% b %.1f %%)\n",
				wl.name, d.Name, sa.Value, sb.Value, sb.Value/sa.Value, 100*sa.IQR/sa.Median, 100*sb.IQR/sb.Median)
		}
		if ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%-12s %-16s %14d %14d %9s  worse (any failed check is)\n", wl.name, "failed", ra.Failed, rb.Failed, "")
			worse++
		}
	}
	return worse, nil
}
