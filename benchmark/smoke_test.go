package main

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// quickConfig is the real protocol with one short segment per engine.
func quickConfig(w *workload, trace bool) *runConfig {
	cfg := newRunConfig(w, 1, 1, trace)
	cfg.segments = 1
	cfg.measure = 50 * time.Millisecond
	cfg.warm = 10 * time.Millisecond
	cfg.rung = 20 * time.Millisecond
	return cfg
}

// TestEveryWorkloadBothEngines runs each workload end to end on both
// engines, untraced and traced, and checks that every reply verified and
// that exactly the named metrics come out.
func TestEveryWorkloadBothEngines(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := quickConfig(w, trace)
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := buildResult(cfg, 1, res)
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d", r.Attempted, r.Failed)
				}
				for _, eng := range engines {
					if r.FailRatio[eng.String()] != 0 || r.LatSamples[eng.String()] == 0 {
						t.Errorf("%s: fail_ratio %v, lat_samples %d", eng, r.FailRatio[eng.String()], r.LatSamples[eng.String()])
					}
				}
				for _, d := range endToEnd {
					if s, ok := r.EndToEnd[d.Name]; !ok || s.Value <= 0 || s.Unit != d.Unit {
						t.Errorf("end-to-end %s = %+v", d.Name, s)
					}
				}
				for _, d := range latencies {
					if s, ok := r.Latency[d.Name]; !ok || s.Value <= 0 || s.Unit != d.Unit {
						t.Errorf("latency %s = %+v", d.Name, s)
					}
				}
				want := endToEnd
				if trace {
					want = perLayer
					if len(cfg.spans.spans) == 0 {
						t.Error("the traced run recorded no span")
					}
				}
				line, err := finalLine(r)
				if err != nil {
					t.Fatal(err)
				}
				var last struct {
					Correct   bool
					Attempted uint64
					Failed    uint64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &last); err != nil {
					t.Fatalf("last line: %v\n%s", err, line)
				}
				if !last.Correct || last.Attempted != r.Attempted || len(last.Metrics) != len(want) {
					t.Errorf("last line: correct %v attempted %d, %d metrics, want %d", last.Correct, last.Attempted, len(last.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := last.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("last line lacks %s [%s]", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// TestResultRecordsItsEnvironment: a stored result says where and how it
// was measured.
func TestResultRecordsItsEnvironment(t *testing.T) {
	cfg := quickConfig(findWorkload("lib-map"), false)
	cfg.seed = 77
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := mergeResult(path, buildResult(cfg, 1, res)); err != nil {
		t.Fatal(err)
	}
	f, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Workloads["lib-map"]
	if r == nil {
		t.Fatal("the result file lacks the workload")
	}
	e := r.Env
	if e.NProc != runtime.NumCPU() || e.GOMAXPROCS != runtime.GOMAXPROCS(0) || e.GoVersion != runtime.Version() || e.GitCommit == "" {
		t.Errorf("env = %+v", e)
	}
	if r.Seed != 77 || r.Segments != 1 || r.Clients != cfg.clients || r.LatSamples["st"] == 0 || r.LatSamples["tl2"] == 0 {
		t.Errorf("seed %d segments %d clients %d lat_samples %v", r.Seed, r.Segments, r.Clients, r.LatSamples)
	}
}

// TestContractMatchesProgram keeps BENCHMARK.json and the metric table in
// step: it is -check, run by tier-1.
func TestContractMatchesProgram(t *testing.T) {
	if err := checkContract(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
}
