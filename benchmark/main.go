// Command benchmark is the repository's benchmark of record: four
// workloads, both commit engines on identical generated inputs, every
// reply verified, end-to-end metrics from untraced runs and per-layer
// metrics from a separate traced run. README.md is the glossary;
// BENCHMARK.json at the repository root is the contract with the driver.
//
//	go run ./benchmark -workload kv-rtt -seed 1                  # end-to-end
//	go run ./benchmark -workload kv-rtt -seed 1 -trace 1 -spans s.jsonl
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 24, "measured seconds per run, shared equally by the segments of both engines")
		trace        = flag.Int("trace", 0, "1 makes the separate traced run that yields the per-layer metrics")
		jsonPath     = flag.String("json", "", "merge this run's result into the result file at this path")
		spansPath    = flag.String("spans", "", "traced run: write the recorded spans to this file as JSON lines")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		check        = flag.Bool("check", false, "check that BENCHMARK.json names what this program emits")
	)
	flag.Parse()

	var err error
	switch {
	case *check:
		err = checkContract("BENCHMARK.json")
	case *compare:
		err = runCompare(flag.Args())
	default:
		err = runBenchmark(*workloadName, *seed, *seconds, *trace == 1, *jsonPath, *spansPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

func runBenchmark(name string, seed uint64, seconds float64, trace bool, jsonPath, spansPath string) error {
	if raceEnabled {
		return fmt.Errorf("built with -race: its numbers would describe the detector, not the system")
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := newRunConfig(w, seed, seconds, trace)
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	r := buildResult(cfg, seconds, res)
	last, err := finalLine(r)
	if err != nil {
		return err
	}
	printResult(os.Stdout, cfg, r, res)
	if spansPath != "" && trace {
		if err := cfg.spans.writeFile(spansPath); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(cfg.spans.spans), spansPath)
	}
	if jsonPath != "" {
		if err := mergeResult(jsonPath, r); err != nil {
			return err
		}
	}
	fmt.Println(last)
	if !r.Correct {
		return fmt.Errorf("%d of %d ops failed verification", r.Failed, r.Attempted)
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	worse, err := compareResults(os.Stdout, a, b)
	if err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkContract verifies that BENCHMARK.json and this program name the
// same workloads and metrics, with the same units, directions and bounds.
func checkContract(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var contract struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var problems []string
	same := func(what string, have, want []metricDef) {
		for _, d := range want {
			if !nameRE.MatchString(d.Name) {
				problems = append(problems, fmt.Sprintf("%s %q is not a valid name", what, d.Name))
			}
			if !slices.Contains(have, d) {
				problems = append(problems, fmt.Sprintf("%s %+v is emitted but not in %s as such", what, d, path))
			}
		}
		for _, d := range have {
			if !slices.Contains(want, d) {
				problems = append(problems, fmt.Sprintf("%s %+v is in %s but not emitted as such", what, d, path))
			}
		}
	}
	same("end-to-end metric", contract.EndToEnd, endToEnd)
	same("per-layer metric", contract.PerLayer, perLayer)
	var have []metricDef
	for _, w := range contract.Workloads {
		have = append(have, metricDef{Name: w.Name})
	}
	var want []metricDef
	for _, w := range workloads {
		want = append(want, metricDef{Name: w.name})
	}
	same("workload", have, want)
	if len(problems) > 0 {
		return fmt.Errorf("%s and the program disagree:\n  %s", path, strings.Join(problems, "\n  "))
	}
	fmt.Printf("%s: %d workloads, %d end-to-end and %d per-layer metrics match the program\n",
		path, len(workloads), len(endToEnd), len(perLayer))
	return nil
}
