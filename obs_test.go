package stm_test

// Tests for the public observability surface: the WithObs/Observe API, the
// zero-allocation contract with hooks off and at every level with a
// registered observer (the contract DESIGN.md §12 documents), and the
// engine-tagged events crossing the API boundary.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	stm "github.com/stm-go/stm"
)

// countObserver tallies events and sampled traces without allocating — the
// shape a production observer has.
type countObserver struct {
	begins, commits, aborts, traces atomic.Uint64
}

func (o *countObserver) ObsTrace(*stm.TraceEvent) { o.traces.Add(1) }

func (o *countObserver) ObsEvent(e *stm.Event) {
	switch e.Kind {
	case stm.EvBegin:
		o.begins.Add(1)
	case stm.EvCommit:
		o.commits.Add(1)
	case stm.EvAbort:
		o.aborts.Add(1)
	}
}

func TestObsAllocFreeHooks(t *testing.T) {
	// Hooks off: the observability seam must not move the zero-allocation
	// fast paths.
	m := mustNew(t, 8)
	if m.ObsLevel() != stm.ObsOff {
		t.Fatalf("fresh Memory at level %v, want off", m.ObsLevel())
	}
	assertAllocs(t, "Add/obs-off", 0, func() {
		if _, err := m.Add(1, 1); err != nil {
			t.Fatal(err)
		}
	})

	// Every level with a registered observer, on both engines: event
	// delivery rides the pooled record's scratch, histograms are fixed
	// arrays, and a trace sample's cost is amortized over SampleEvery
	// transactions, so the contract holds all the way up to ObsTrace.
	for _, eng := range stm.Engines() {
		for _, lvl := range []stm.ObsLevel{stm.ObsCounters, stm.ObsHistograms, stm.ObsTrace} {
			name := fmt.Sprintf("%v/obs-%v", eng, lvl)
			obs := &countObserver{}
			m := mustNewEngine(t, 16, eng)
			m.Observe(stm.ObsConfig{Level: lvl, Observer: obs, SampleEvery: stm.DefaultSampleEvery})
			assertAllocs(t, name+"/Add", 0, func() {
				if _, err := m.Add(1, 1); err != nil {
					t.Fatal(err)
				}
			})
			tx, err := m.Prepare([]int{2, 5})
			if err != nil {
				t.Fatal(err)
			}
			var old [2]uint64
			bump := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
			assertAllocs(t, name+"/RunInto", 0, func() { tx.RunInto(bump, old[:]) })
			addrs := []int{0, 3, 4, 7, 8, 11, 12, 15}
			dst := make([]uint64, len(addrs))
			assertAllocs(t, name+"/ReadAllInto", 0, func() {
				if err := m.ReadAllInto(addrs, dst); err != nil {
					t.Fatal(err)
				}
			})
			// The zero-allocation runs were measured, not metered off.
			if obs.begins.Load() == 0 || obs.commits.Load() == 0 || (lvl == stm.ObsTrace) != (obs.traces.Load() > 0) {
				t.Errorf("%s: observer saw %d begins / %d commits / %d traces",
					name, obs.begins.Load(), obs.commits.Load(), obs.traces.Load())
			}
		}
	}
}

func TestObsWithObsOption(t *testing.T) {
	obs := &countObserver{}
	m, err := stm.New(8, stm.WithObs(stm.ObsConfig{Level: stm.ObsCounters, Observer: obs}))
	if err != nil {
		t.Fatal(err)
	}
	if m.ObsLevel() != stm.ObsCounters {
		t.Fatalf("level = %v, want counters", m.ObsLevel())
	}
	if _, err := m.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if obs.begins.Load() != 1 || obs.commits.Load() != 1 {
		t.Errorf("observer saw %d begins / %d commits, want 1/1", obs.begins.Load(), obs.commits.Load())
	}
}

func TestObsDebugString(t *testing.T) {
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 8, eng)
		m.Observe(stm.ObsConfig{Level: stm.ObsHistograms})
		for i := 0; i < 10; i++ {
			if _, err := m.Add(i%8, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Atomically(func(tx *stm.DTx) error { tx.Read(0); return nil }); err != nil {
			t.Fatal(err)
		}
		s := m.DebugString()
		for _, want := range []string{"engine=" + eng.String(), " commits=10", "read-only-commits=1 ", "commit-ticks"} {
			if !strings.Contains(s, want) {
				t.Errorf("%v DebugString missing %q:\n%s", eng, want, s)
			}
		}
	}
}

// TestObsSnapshotWhileMixedLoad drives the public API the way a live system
// does — snapshots, resets, and reconfiguration racing transactions on both
// engines — as a race-detector target.
func TestObsSnapshotWhileMixedLoad(t *testing.T) {
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 16, eng)
		obs := &countObserver{}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := m.Add(i%4, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for i := 0; i < 100; i++ {
			lvl := stm.ObsLevel(uint32(i % 4))
			m.Observe(stm.ObsConfig{Level: lvl, Observer: obs})
			_ = m.Stats()
			if i%10 == 0 {
				m.ResetStats()
			}
		}
		close(stop)
		wg.Wait()
		if got := m.ObsLevel(); got != stm.ObsTrace {
			t.Errorf("%v: final level = %v, want trace", eng, got)
		}
	}
}
