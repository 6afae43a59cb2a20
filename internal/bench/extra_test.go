package bench

import (
	"strconv"
	"testing"
)

func TestStepCountsQuick(t *testing.T) {
	d, err := StepCounts(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "T0" {
		t.Errorf("ID = %q, want T0", d.ID)
	}
	// 2 workloads × 4 methods.
	if len(d.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(d.Rows))
	}
	// The STM counting row must show substantially more ops/op than the
	// lock rows — the constant overhead the paper acknowledges.
	var stmOps, ttasOps float64
	for _, row := range d.Rows {
		if row[0] != string(KindCounting) {
			continue
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("unparsable P=1 cell %q", row[2])
		}
		switch row[1] {
		case string(MethodSTM):
			stmOps = v
		case string(MethodTTAS):
			ttasOps = v
		}
	}
	if stmOps <= ttasOps {
		t.Errorf("stm footprint %.1f not above ttas %.1f", stmOps, ttasOps)
	}
	if stmOps < 15 || stmOps > 80 {
		t.Errorf("stm counting footprint %.1f outside plausible protocol range", stmOps)
	}
}

func TestTxSizeQuick(t *testing.T) {
	f, err := TxSize(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "F7" {
		t.Errorf("ID = %q, want F7", f.ID)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != 4 {
			t.Errorf("series %s has %d points, want 4", s.Label, len(s.Points))
		}
		// Throughput must decrease as k grows for every method.
		if s.Points[0].Y <= s.Points[len(s.Points)-1].Y {
			t.Errorf("series %s: throughput did not fall with k (%.1f → %.1f)",
				s.Label, s.Points[0].Y, s.Points[len(s.Points)-1].Y)
		}
	}
}

func TestIdealArchExposed(t *testing.T) {
	out, err := Run(Spec{
		Kind:     KindCounting,
		Method:   MethodSTM,
		Arch:     ArchIdeal,
		Procs:    2,
		Duration: 50_000,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Extra["mem_ops"] <= 0 {
		t.Error("ideal arch did not report mem_ops")
	}
}
