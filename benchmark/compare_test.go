package main

import (
	"io"
	"strings"
	"testing"
)

// resultWith builds a one-workload result set whose every end-to-end
// metric has the given median and quartiles.
func resultWith(value, q1, q3 float64) *resultFile {
	r := &workloadResult{Workload: "kv-rtt", Correct: true, EndToEnd: map[string]summary{}}
	r.Latency = map[string]summary{}
	for _, d := range endToEnd {
		r.EndToEnd[d.Name] = summary{Value: value, Median: value, Q1: q1, Q3: q3, IQR: q3 - q1, Unit: d.Unit}
	}
	for _, d := range latencies {
		r.Latency[d.Name] = summary{Value: value, Median: value, Q1: q1, Q3: q3, IQR: q3 - q1, Unit: d.Unit}
	}
	return &resultFile{Workloads: map[string]*workloadResult{"kv-rtt": r}}
}

func TestCompareVerdicts(t *testing.T) {
	base := resultWith(100, 99, 101)
	cases := []struct {
		name   string
		b      *resultFile
		metric string
		want   string
		worse  int
	}{
		{"same", resultWith(100, 99, 101), "ops_per_s.st", "within bound", 0},
		// 100 -> 70: throughput fell 30 %, set-up "improved" 30 %.
		{"throughput fell", resultWith(70, 69, 71), "ops_per_s.st", "worse", 2},
		{"set-up better", resultWith(70, 69, 71), "setup_s", "within bound", 2},
		// 100 -> 140: set-up rose past its bound; throughput "improved".
		{"set-up rose", resultWith(140, 139, 141), "setup_s", "worse", 1},
		{"throughput better", resultWith(140, 139, 141), "ops_per_s.tl2", "within bound", 1},
		{"inside the bound", resultWith(120, 119, 121), "setup_s", "within bound", 0},
		{"latency is never gated", resultWith(300, 299, 301), "lat_p99_us.st", "not gated", 1},
		// Segments spread over 40 % and the runs overlap: no verdict.
		{"too noisy to tell", resultWith(85, 70, 110), "ops_per_s.tl2", "unresolved", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			worse, err := compareResults(&out, base, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if worse != tc.worse {
				t.Errorf("%d metrics worse, want %d\n%s", worse, tc.worse, out.String())
			}
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) > 1 && f[0] == "kv-rtt" && f[1] == tc.metric {
					found = true
					if !strings.Contains(line, "  "+tc.want+" (") {
						t.Errorf("%s: want %q in %q", tc.metric, tc.want, line)
					}
				}
			}
			if !found {
				t.Errorf("no row for %s:\n%s", tc.metric, out.String())
			}
		})
	}
}

func TestCompareRefusesTracedRuns(t *testing.T) {
	b := resultWith(100, 99, 101)
	b.Workloads["kv-rtt"].Trace = true
	if _, err := compareResults(io.Discard, resultWith(100, 99, 101), b); err == nil {
		t.Fatal("a traced run's end-to-end numbers were compared")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}
