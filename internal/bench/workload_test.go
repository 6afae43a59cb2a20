package bench

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 10},
		{p: 100, want: 40},
		{p: 50, want: 25},
		{p: 25, want: 17.5},
	}
	for _, tt := range tests {
		if got := percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %f, want %f", xs, tt.p, got, tt.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %f", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return percentile(raw, a) <= percentile(raw, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}
