package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles(xs, n=4)), so a
// spread computed here and one computed over repeated runs mean the same
// thing. xs is not modified. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(q float64) float64 {
		pos := q * float64(len(s)+1)
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// nearest rank: the smallest sample with at least p of the samples at or
// below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// summary is one metric's value over a run's segments, with the
// segments' median and quartiles kept so that a reader, and -compare, can
// tell a shift from noise.
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr"`
	Unit   string    `json:"unit"`
	Segs   []float64 `json:"segments"`
}

// summarize reduces segment values to the reported one. An end-to-end
// metric reports the quartile on its good side — the third quartile of
// the segments if better is "higher", the first if "lower". On a shared
// host interference only ever makes a segment worse, and can last for
// most of a run, so the median drifts with the host where the better
// segments repeat; the very best ones can be flukes (a kv-rtt segment in
// which the scheduler happens to keep each connection's goroutines on one
// P, a kv-transfer segment in which one client stalls and the other runs
// uncontended), and the quartile sits past two or three of those.
// README.md has the measurements. A per-layer metric, which explains
// rather than gates, passes "" and reports the median.
func summarize(unit, better string, segs []float64) summary {
	q1, med, q3 := quartiles(segs)
	s := summary{Value: med, Median: med, Q1: q1, Q3: q3, IQR: q3 - q1, Unit: unit, Segs: segs}
	switch better {
	case "higher":
		s.Value = q3
	case "lower":
		s.Value = q1
	}
	return s
}
