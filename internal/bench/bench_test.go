package bench

import (
	"strconv"
	"strings"
	"testing"
)

func tinyOptions() Options {
	return Options{
		Procs:    []int{1, 2, 4},
		Duration: 60_000,
		Seed:     42,
		QueueCap: 8,
		Pools:    8,
		K:        2,
	}
}

func TestFigureTableAndCSV(t *testing.T) {
	f := Figure{
		ID:     "FX",
		Title:  "demo",
		XLabel: "procs",
		YLabel: "tput",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 10.5}, {X: 2, Y: 20}}},
			{Label: "b", Points: []Point{{X: 1, Y: 1}, {X: 4, Y: 4}}},
		},
		Notes: []string{"hello"},
	}
	tbl := f.Table()
	for _, want := range []string{"FX", "demo", "procs", "a", "b", "10.5", "note: hello", "-"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table() missing %q:\n%s", want, tbl)
		}
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + x ∈ {1,2,4}
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), csv)
	}
	if lines[0] != "procs,a,b" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "2,20.0000,") {
		t.Errorf("CSV row for x=2 = %q (missing b hole)", lines[2])
	}
}

func TestDocRendering(t *testing.T) {
	d := Doc{
		ID:    "T9",
		Title: "demo table",
		Head:  []string{"col a", "b"},
		Rows:  [][]string{{"x", "1"}, {"longer", "2"}},
		Notes: []string{"n1"},
	}
	tbl := d.Table()
	for _, want := range []string{"T9", "col a", "longer", "note: n1"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Doc.Table() missing %q:\n%s", want, tbl)
		}
	}
	csv := d.CSV()
	if !strings.HasPrefix(csv, "col a,b\n") {
		t.Errorf("Doc.CSV() header wrong: %q", csv)
	}
}

func TestCSVEscape(t *testing.T) {
	tests := map[string]string{
		"plain":      "plain",
		"with,comma": `"with,comma"`,
		`q"uote`:     `"q""uote"`,
	}
	for in, want := range tests {
		if got := csvEscape(in); got != want {
			t.Errorf("csvEscape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	full := DefaultOptions(false)
	quick := DefaultOptions(true)
	if len(full.Procs) <= len(quick.Procs) {
		t.Error("full sweep should cover more processor counts than quick")
	}
	if full.Procs[len(full.Procs)-1] != 64 {
		t.Errorf("full sweep must reach 64 processors (the paper's machine size), got %d",
			full.Procs[len(full.Procs)-1])
	}
	if quick.Duration >= full.Duration {
		t.Error("quick duration should be shorter")
	}
}

func TestCountingExperimentQuick(t *testing.T) {
	f, err := Counting(ArchBus, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "F1" {
		t.Errorf("ID = %q, want F1", f.ID)
	}
	if len(f.Series) != len(Methods) {
		t.Fatalf("series = %d, want %d", len(f.Series), len(Methods))
	}
	for _, s := range f.Series {
		if len(s.Points) != 3 {
			t.Errorf("series %s has %d points, want 3", s.Label, len(s.Points))
		}
	}
	fn, err := Counting(ArchNet, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fn.ID != "F2" {
		t.Errorf("net ID = %q, want F2", fn.ID)
	}
}

func TestQueueExperimentQuick(t *testing.T) {
	f, err := Queue(ArchBus, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "F3" {
		t.Errorf("ID = %q, want F3", f.ID)
	}
}

func TestBreakdownQuick(t *testing.T) {
	d, err := Breakdown(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "T1" {
		t.Errorf("ID = %q, want T1", d.ID)
	}
	if len(d.Rows) != 4 { // 2 archs × 2 proc counts (quick extremes)
		t.Errorf("rows = %d, want 4", len(d.Rows))
	}
}

func TestStallsQuick(t *testing.T) {
	f, err := Stalls(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "F5" {
		t.Errorf("ID = %q, want F5", f.ID)
	}
	if len(f.Series) != 3 {
		t.Errorf("series = %d, want 3", len(f.Series))
	}
}

func TestAblationQuick(t *testing.T) {
	f, err := Ablation(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "F6" {
		t.Errorf("ID = %q, want F6", f.ID)
	}
	if len(f.Series) != 4 {
		t.Errorf("series = %d, want 4", len(f.Series))
	}
}

func TestSweepDeterminism(t *testing.T) {
	a, err := Counting(ArchBus, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Counting(ArchBus, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Error("same options produced different figures")
	}
}

// TestFigureClaims turns each figure's claim into an assertion on the
// -quick sweep at its default seed (DESIGN.md §5 lists the claims, and
// where the full sweep departs from the paper).
func TestFigureClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole -quick sweep")
	}
	o := DefaultOptions(true)
	on := func(fig func(Arch, Options) (Figure, error), arch Arch) func(Options) (Figure, error) {
		return func(o Options) (Figure, error) { return fig(arch, o) }
	}
	// ranked asserts the series are in descending order at every X.
	ranked := func(labels ...string) func(*testing.T, Figure) {
		return func(t *testing.T, f Figure) {
			for _, x := range f.xValues() {
				for i := 1; i < len(labels); i++ {
					if hi, lo := y(t, f, labels[i-1], x), y(t, f, labels[i], x); hi <= lo {
						t.Errorf("P=%v: %s %.1f ≤ %s %.1f", x, labels[i-1], hi, labels[i], lo)
					}
				}
			}
		}
	}
	tests := []struct {
		id    string
		fig   func(Options) (Figure, error)
		claim func(*testing.T, Figure)
	}{
		{"F1", on(Counting, ArchBus), ranked("herlihy", "ttas", "mcs", "stm")},
		{"F2", on(Counting, ArchNet), ranked("herlihy", "ttas", "mcs", "stm")},
		{"F3", on(Queue, ArchBus), ranked("stm", "herlihy")},
		{"F4", on(Queue, ArchNet), ranked("stm", "herlihy")},
		{"F5", Stalls, func(t *testing.T, f Figure) {
			// Throughput with s processors stalled, as a share of none.
			kept := func(label string, s float64) float64 { return y(t, f, label, s) / y(t, f, label, 0) }
			if k := kept("stm", 4); k < 0.9 {
				t.Errorf("stm keeps %.3f of its throughput with 4 stalled, want ≥ 0.9", k)
			}
			if k := kept("ttas", 4); k >= 0.05 {
				t.Errorf("ttas keeps %.3f of its throughput with 4 stalled, want < 0.05", k)
			}
			if k := kept("mcs", 1); k >= 0.15 {
				t.Errorf("mcs keeps %.3f of its throughput with 1 stalled, want < 0.15", k)
			}
		}},
		{"F6", Ablation, func(t *testing.T, f Figure) {
			stm := y(t, f, "stm", 8)
			for _, v := range []string{"stm-nohelp", "stm-unsorted"} {
				if other := y(t, f, v, 8); stm <= other {
					t.Errorf("P=8: stm %.1f ≤ %s %.1f", stm, v, other)
				}
			}
		}},
		{"F7", TxSize, func(t *testing.T, f Figure) {
			for _, s := range f.Series {
				for i := 1; i < len(s.Points); i++ {
					if prev, p := s.Points[i-1], s.Points[i]; p.Y >= prev.Y {
						t.Errorf("%s: k=%v %.1f ≥ k=%v %.1f", s.Label, p.X, p.Y, prev.X, prev.Y)
					}
				}
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.id, func(t *testing.T) {
			f, err := tt.fig(o)
			if err != nil {
				t.Fatal(err)
			}
			tt.claim(t, f)
		})
	}
	t.Run("T0", func(t *testing.T) {
		d, err := StepCounts(o)
		if err != nil {
			t.Fatal(err)
		}
		cell := func(method Method) float64 {
			for _, row := range d.Rows {
				if row[0] == string(KindCounting) && row[1] == string(method) {
					v, err := strconv.ParseFloat(row[2], 64)
					if err != nil {
						t.Fatalf("unparsable P=1 cell %q", row[2])
					}
					return v
				}
			}
			t.Fatalf("no counting row for %s", method)
			return 0
		}
		if stm, ttas := cell(MethodSTM), cell(MethodTTAS); stm < 5*ttas {
			t.Errorf("P=1 counting footprint: stm %.1f < 5 × ttas %.1f", stm, ttas)
		}
	})
}

// y returns the throughput of f's series label at x.
func y(t *testing.T, f Figure, label string, x float64) float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			if v, ok := s.at(x); ok {
				return v
			}
		}
	}
	t.Fatalf("%s has no %s point at %v", f.ID, label, x)
	return 0
}
