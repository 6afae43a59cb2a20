package stmobs

import (
	"expvar"
	"fmt"
	"sort"
	"sync"

	stm "github.com/stm-go/stm"
)

// StatsMap flattens a Memory's stats snapshot into an expvar/JSON-friendly
// map: every counter the Memory's engine maintains under its table key
// (stm.Counters), and — when histogram-level observability is enabled —
// each non-empty histogram as a hist_<key> bin-count array (nanoseconds
// for the _nanos keys, words otherwise). Every call takes a fresh snapshot
// (torn-window caveats per stm.StatsSnapshot).
func StatsMap(m *stm.Memory) map[string]any {
	s := m.Stats()
	out := map[string]any{
		"engine":    m.Engine().String(),
		"obs_level": m.ObsLevel().String(),
	}
	for _, c := range stm.Counters(m.Engine()) {
		out[c.Key] = c.Value(&s)
	}
	for _, h := range stm.Histograms() {
		if hs := h.Value(&s); hs.Total() != 0 {
			out["hist_"+h.Key] = hs.Counts[:]
		}
	}
	return out
}

// pub is the package registry behind Publish: name → Memory. The expvar
// variable registered for a name reads through this map, so re-publishing a
// name atomically swaps which Memory it serves — and the same registry
// feeds the /metrics endpoint of AdminMux, so expvar and Prometheus can
// never disagree about which Memory a name means.
var pub struct {
	mu   sync.Mutex
	mems map[string]*stm.Memory
}

// Publish registers the Memory under name, so /debug/vars (and anything
// else that walks expvar) serves a live StatsMap snapshot and AdminMux's
// /metrics exports it in Prometheus format. Publishing a name that is
// already registered replaces the Memory it serves — a harness that builds
// a fresh Memory per run can keep publishing it under one stable name. It
// returns an error only when the name is owned by a foreign expvar
// publisher (registered outside this package), which cannot be replaced.
func Publish(name string, m *stm.Memory) error {
	pub.mu.Lock()
	defer pub.mu.Unlock()
	if pub.mems == nil {
		pub.mems = make(map[string]*stm.Memory)
	}
	if _, ours := pub.mems[name]; !ours {
		if expvar.Get(name) != nil {
			return fmt.Errorf("stmobs: expvar name %q is already taken outside stmobs", name)
		}
		expvar.Publish(name, expvar.Func(func() any {
			pub.mu.Lock()
			mem := pub.mems[name]
			pub.mu.Unlock()
			if mem == nil {
				return nil
			}
			return StatsMap(mem)
		}))
	}
	pub.mems[name] = m
	return nil
}

// published snapshots the registry, names sorted, for the /metrics walk.
func published() (names []string, mems []*stm.Memory) {
	pub.mu.Lock()
	defer pub.mu.Unlock()
	for name := range pub.mems {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mems = append(mems, pub.mems[name])
	}
	return names, mems
}
