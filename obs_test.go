package stm_test

// Tests for the public observability surface: the WithObs/Observe API, the
// zero-allocation contract with hooks off and at every level with a
// registered observer (the contract DESIGN.md §12 documents), and the
// engine-tagged events crossing the API boundary.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	stm "github.com/stm-go/stm"
)

// countObserver tallies events, and the sampled ones (those carrying an
// Elapsed time), without allocating — the shape a production observer has.
// Every attempt ends in one event, so commits plus aborts is the attempts.
type countObserver struct {
	commits, aborts, sampled atomic.Uint64
}

func (o *countObserver) attempts() uint64 { return o.commits.Load() + o.aborts.Load() }

func (o *countObserver) ObsEvent(e *stm.Event) {
	switch e.Kind {
	case stm.EvCommit:
		o.commits.Add(1)
	case stm.EvAbort:
		o.aborts.Add(1)
	}
	if e.Elapsed != 0 {
		o.sampled.Add(1)
	}
}

func TestObsAllocFreeHooks(t *testing.T) {
	// Hooks off: the observability seam must not move the zero-allocation
	// fast paths.
	m := mustNew(t, 8)
	if m.ObsLevel() != stm.ObsOff {
		t.Fatalf("fresh Memory at level %v, want off", m.ObsLevel())
	}
	one := mustPrepare(t, m, []int{1})
	inc := func(o, n []uint64) { n[0] = o[0] + 1 }
	assertAllocs(t, "RunInto/obs-off", 0, func() { one.RunInto(inc, nil) })

	// Every level with a registered observer, on both engines, at the
	// default sampling period and with every attempt sampled: event
	// delivery rides the pooled record's scratch (its Addrs is the
	// record's own data set), and histograms are fixed arrays, so no
	// attempt allocates, sampled or not.
	for _, eng := range stm.Engines() {
		for _, cfg := range []stm.ObsConfig{
			{Level: stm.ObsCounters},
			{Level: stm.ObsHistograms},
			{Level: stm.ObsHistograms, SampleEvery: 1},
		} {
			lvl := cfg.Level
			name := fmt.Sprintf("%v/obs-%v/sample-%d", eng, lvl, cfg.SampleEvery)
			obs := &countObserver{}
			cfg.Observer = obs
			m := mustNewEngine(t, 16, eng)
			m.Observe(cfg)
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
			if obs.commits.Load() == 0 || (lvl == stm.ObsHistograms) != (obs.sampled.Load() > 0) {
				t.Errorf("%s: observer saw %d attempts / %d commits / %d sampled",
					name, obs.attempts(), obs.commits.Load(), obs.sampled.Load())
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
	addWord(m, 0, 1)
	if obs.attempts() != 1 || obs.commits.Load() != 1 {
		t.Errorf("observer saw %d attempts / %d commits, want 1/1", obs.attempts(), obs.commits.Load())
	}
}

func TestObsDebugString(t *testing.T) {
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 8, eng)
		m.Observe(stm.ObsConfig{Level: stm.ObsHistograms, SampleEvery: 1})
		for i := 0; i < 10; i++ {
			addWord(m, i%8, 1)
		}
		if err := m.Atomically(func(tx *stm.DTx) error { tx.Read(0); return nil }); err != nil {
			t.Fatal(err)
		}
		s := m.DebugString()
		want := []string{"engine=" + eng.String(), "commits=10", "read_only_commits=1", "commit_nanos"}
		if eng == stm.ST {
			want = append(want, "owned_words=10") // ten one-word Adds
		}
		fields := strings.Fields(s)
		for _, w := range want {
			if !slices.Contains(fields, w) {
				t.Errorf("%v DebugString missing %q:\n%s", eng, w, s)
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
					addWord(m, i%4, 1)
				}
			}(w)
		}
		// 102 rounds over the three levels end at the top one.
		for i := 0; i < 102; i++ {
			lvl := stm.ObsLevel(uint32(i % 3))
			m.Observe(stm.ObsConfig{Level: lvl, Observer: obs})
			_ = m.Stats()
			if i%10 == 0 {
				m.ResetStats()
			}
		}
		close(stop)
		wg.Wait()
		if got := m.ObsLevel(); got != stm.ObsHistograms {
			t.Errorf("%v: final level = %v, want hist", eng, got)
		}
	}
}

// TestObsEventAddrsDynamicCommit: a dynamic commit's end event carries its
// written words, in engine order, and not the words it only read.
func TestObsEventAddrsDynamicCommit(t *testing.T) {
	for _, eng := range stm.Engines() {
		m := mustNewEngine(t, 8, eng)
		var got [][]int
		m.Observe(stm.ObsConfig{Level: stm.ObsHistograms, SampleEvery: 1, Observer: observerFunc(func(e *stm.Event) {
			if e.Kind == stm.EvCommit {
				got = append(got, slices.Clone(e.Addrs))
			}
		})})
		if err := m.Atomically(func(tx *stm.DTx) error {
			tx.Write(5, tx.Read(0)+tx.Read(2)+1)
			tx.Write(2, 7)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !slices.Equal(got[0], []int{2, 5}) {
			t.Errorf("%v: commit events' Addrs = %v, want one [2 5]", eng, got)
		}
	}
}

// observerFunc adapts a function to stm.Observer.
type observerFunc func(*stm.Event)

func (f observerFunc) ObsEvent(e *stm.Event) { f(e) }
