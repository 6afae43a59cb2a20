package stmobs

import (
	"expvar"
	"fmt"
	"sort"
	"sync"

	stm "github.com/stm-go/stm"
)

// StatsMap flattens a Memory's stats snapshot into an expvar/JSON-friendly
// map: scalar counters, the abort taxonomy for the Memory's engine, the
// dynamic layer's snapshot-extension and read-only-commit counters, and —
// when histogram-level observability is enabled — the four histograms as
// bin-count arrays. Every call takes a fresh snapshot (torn-window caveats
// per stm.StatsSnapshot).
func StatsMap(m *stm.Memory) map[string]any {
	s := m.Stats()
	out := map[string]any{
		"engine":    m.Engine().String(),
		"obs_level": m.ObsLevel().String(),
		"attempts":  s.Attempts,
		"commits":   s.Commits,
		"failures":  s.Failures,
		"helps":     s.Helps,
	}
	switch m.Engine() {
	case stm.ST:
		out["aborts_st_conflict"] = s.STConflictAborts
		out["aborts_st_helped"] = s.STHelpedAborts
	case stm.TL2:
		out["aborts_tl2_read"] = s.TL2ReadAborts
		out["aborts_tl2_lock"] = s.TL2LockAborts
		out["aborts_tl2_validate"] = s.TL2ValidateAborts
		out["tl2_read_only_commits"] = s.TL2ReadOnlyCommits
		out["tl2_clock_races"] = s.TL2ClockRaces
		out["tl2_clock_adoptions"] = s.TL2ClockAdoptions
	}
	out["snapshot_extensions"] = s.SnapshotExtensions
	out["snapshot_rechecked"] = s.SnapshotRechecked
	out["snapshot_stale"] = s.SnapshotStale
	out["read_only_commits"] = s.ReadOnlyCommits
	hist := func(key string, h stm.HistogramSnapshot) {
		if h.Total() == 0 {
			return
		}
		bins := make([]uint64, len(h.Counts))
		copy(bins, h.Counts[:])
		out[key] = bins
	}
	hist("hist_commit_ticks", s.CommitTicks)
	hist("hist_abort_ticks", s.AbortTicks)
	hist("hist_read_set", s.ReadSetSize)
	hist("hist_write_set", s.WriteSetSize)
	if s.CommitTicks.Total() != 0 || s.AbortTicks.Total() != 0 {
		out["tick_nanos"] = uint64(stm.TickInterval.Nanoseconds())
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
