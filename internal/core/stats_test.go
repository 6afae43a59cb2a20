package core

import (
	"reflect"
	"testing"
)

// TestStatsTableCoversSnapshot pins the counter and histogram tables to
// StatsSnapshot: every uint64 field is read by exactly one counter row and
// every HistogramSnapshot field by exactly one histogram row, so a field
// added without a row — invisible to every exporter — fails here. It also
// pins what the tables' users rely on: unique keys, taxonomy rows in
// AbortReason order (statLine.reason indexes cHelps+r), and taxonomy rows
// scoped to their engine.
func TestStatsTableCoversSnapshot(t *testing.T) {
	rt := reflect.TypeOf(StatsSnapshot{})
	counters, hists := 0, 0
	for i := 0; i < rt.NumField(); i++ {
		var s StatsSnapshot
		f := reflect.ValueOf(&s).Elem().Field(i)
		rows := 0
		switch f.Interface().(type) {
		case uint64:
			counters++
			f.SetUint(1)
			for _, c := range counterTable {
				if c.Value(&s) != 0 {
					rows++
				}
			}
		case HistogramSnapshot:
			hists++
			f.Field(0).Index(0).SetUint(1)
			for _, h := range histTable {
				if h.Value(&s).Total() != 0 {
					rows++
				}
			}
		default:
			t.Errorf("StatsSnapshot.%s has type %s, which no table covers", rt.Field(i).Name, f.Type())
			continue
		}
		if rows != 1 {
			t.Errorf("StatsSnapshot.%s is read by %d table rows, want 1", rt.Field(i).Name, rows)
		}
	}
	if counters != int(nCounters) || hists != int(nHists) {
		t.Errorf("StatsSnapshot has %d counters and %d histograms; the tables have %d and %d rows",
			counters, hists, nCounters, nHists)
	}

	keys := map[string]bool{}
	for _, c := range counterTable {
		keys[c.Key] = true
	}
	for _, h := range histTable {
		keys[h.Key] = true
	}
	if len(keys) != int(nCounters)+int(nHists) {
		t.Errorf("table keys are not unique: %d distinct of %d rows", len(keys), int(nCounters)+int(nHists))
	}

	for r := ReasonSTConflict; r <= ReasonTL2Validate; r++ {
		c := counterTable[cHelps+counter(r)]
		want := uint8(onTL2)
		if r <= ReasonSTValidate {
			want = onST
		}
		if c.Reason != r || c.engines != want {
			t.Errorf("%v is counted by row %q (reason %v, engines %b), want reason %v, engines %b",
				r, c.Key, c.Reason, c.engines, r, want)
		}
	}
}

// TestStatsSnapshotAdd: Add sums every counter and every histogram bin.
func TestStatsSnapshotAdd(t *testing.T) {
	var a, b StatsSnapshot
	for i, c := range counterTable {
		*c.field(&a) = uint64(i)
		*c.field(&b) = 100
	}
	a.ReadSetSize.Counts[3] = 2
	b.ReadSetSize.Counts[3] = 5
	b.AbortNanos.Counts[HistBins-1] = 1
	a.Add(b)
	for i, c := range counterTable {
		if got := c.Value(&a); got != uint64(i)+100 {
			t.Errorf("%s = %d after Add, want %d", c.Key, got, i+100)
		}
	}
	if a.ReadSetSize.Counts[3] != 7 || a.AbortNanos.Total() != 1 {
		t.Errorf("histograms after Add: read-set bin 3 = %d (want 7), abort nanos total = %d (want 1)",
			a.ReadSetSize.Counts[3], a.AbortNanos.Total())
	}
}

// TestStatsHistBins pins Hist's log2 binning at every bin edge, its merge
// into a snapshot, and Reset.
func TestStatsHistBins(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 2, 3, 4, 1<<(HistBins-2) - 1, 1 << (HistBins - 2), ^uint64(0)} {
		h.Observe(v)
	}
	var s HistogramSnapshot
	h.AddTo(&s)
	h.AddTo(&s) // merging adds
	want := HistogramSnapshot{}
	want.Counts[0], want.Counts[1], want.Counts[2], want.Counts[3] = 2, 2, 4, 2
	want.Counts[HistBins-2], want.Counts[HistBins-1] = 2, 4
	if s != want {
		t.Errorf("bins = %v, want %v", s.Counts, want.Counts)
	}
	for i := range s.Counts {
		lo, hi := s.BucketBounds(i)
		var one Hist
		one.Observe(lo)
		one.Observe(hi - 1)
		var got HistogramSnapshot
		one.AddTo(&got)
		if got.Counts[i] != 2 {
			t.Errorf("bin %d: bounds [%d,%d) but its edges bin as %v", i, lo, hi, got.Counts)
		}
	}
	h.Reset()
	var empty HistogramSnapshot
	h.AddTo(&empty)
	if empty.Total() != 0 {
		t.Errorf("after Reset: %v", empty)
	}
}
