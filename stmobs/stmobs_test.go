package stmobs_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
)

func TestStatsMap(t *testing.T) {
	for _, eng := range stm.Engines() {
		m, err := stm.New(8, stm.WithEngine(eng),
			stm.WithObs(stm.ObsConfig{Level: stm.ObsHistograms, SampleEvery: 1}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			addWord(m, 0, 1)
		}
		sm := stmobs.StatsMap(m)
		if sm["engine"] != eng.String() || sm["obs_level"] != "hist" {
			t.Errorf("%v: engine/obs_level = %v/%v", eng, sm["engine"], sm["obs_level"])
		}
		if sm["commits"] != uint64(7) {
			t.Errorf("%v: commits = %v, want 7", eng, sm["commits"])
		}
		// Per-engine taxonomy keys: only the Memory's engine's keys appear.
		_, hasST := sm["aborts_st_conflict"]
		_, hasTL2 := sm["aborts_tl2_read"]
		if hasST != (eng == stm.ST) || hasTL2 != (eng == stm.TL2) {
			t.Errorf("%v: taxonomy keys st=%v tl2=%v", eng, hasST, hasTL2)
		}
		if _, ok := sm["hist_commit_nanos"]; !ok {
			t.Errorf("%v: commit histogram missing at hist level", eng)
		}
		// The map must be expvar-compatible: plain JSON marshaling works.
		if _, err := json.Marshal(sm); err != nil {
			t.Errorf("%v: StatsMap not JSON-marshalable: %v", eng, err)
		}
	}
}

func TestPprofDo(t *testing.T) {
	m, err := stm.New(4, stm.WithEngine(stm.TL2))
	if err != nil {
		t.Fatal(err)
	}
	var engine, site string
	stmobs.Do(context.Background(), m, "worker", func(ctx context.Context) {
		engine, _ = pprof.Label(ctx, "stm_engine")
		site, _ = pprof.Label(ctx, "stm_site")
	})
	if engine != "tl2" || site != "worker" {
		t.Errorf("labels = %q/%q, want tl2/worker", engine, site)
	}
}

// TestSnapshotExtensionsExported drives one real snapshot extension (a
// foreign commit between a dynamic transaction's two reads) and finds it in
// both exports, on both engines, until ResetStats.
func TestSnapshotExtensionsExported(t *testing.T) {
	for _, eng := range stm.Engines() {
		m, err := stm.New(8, stm.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Atomically(func(tx *stm.DTx) error {
			tx.Read(0)
			addWord(m, 5, 1)
			tx.Read(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sm := stmobs.StatsMap(m)
		if sm["snapshot_extensions"] != uint64(1) || sm["snapshot_rechecked"] != uint64(2) || sm["snapshot_stale"] != uint64(0) {
			t.Errorf("%v: StatsMap extensions=%v rechecked=%v stale=%v, want 1 2 0", eng, sm["snapshot_extensions"], sm["snapshot_rechecked"], sm["snapshot_stale"])
		}
		// The transaction wrote nothing: it is the one read-only commit, and
		// the foreign Add the one engine commit.
		if sm["read_only_commits"] != uint64(1) || sm["commits"] != uint64(1) {
			t.Errorf("%v: StatsMap read_only_commits=%v commits=%v, want 1 1", eng, sm["read_only_commits"], sm["commits"])
		}
		var prom strings.Builder
		stmobs.WriteProm(&prom, "mem", m)
		for _, want := range []string{
			fmt.Sprintf("stm_snapshot_extensions_total{memory=\"mem\",engine=%q} 1\n", eng.String()),
			fmt.Sprintf("stm_snapshot_rechecked_words_total{memory=\"mem\",engine=%q} 2\n", eng.String()),
			fmt.Sprintf("stm_snapshot_stale_total{memory=\"mem\",engine=%q} 0\n", eng.String()),
			fmt.Sprintf("stm_read_only_commits_total{memory=\"mem\",engine=%q} 1\n", eng.String()),
		} {
			if !strings.Contains(prom.String(), want) {
				t.Errorf("%v: WriteProm missing %q", eng, want)
			}
		}
		m.ResetStats()
		if sm := stmobs.StatsMap(m); sm["snapshot_extensions"] != uint64(0) || sm["snapshot_rechecked"] != uint64(0) || sm["read_only_commits"] != uint64(0) {
			t.Errorf("%v: after ResetStats extensions=%v rechecked=%v read_only_commits=%v",
				eng, sm["snapshot_extensions"], sm["snapshot_rechecked"], sm["read_only_commits"])
		}
	}
}
