package stmobs_test

// The export vocabulary, pinned: every Prometheus line WriteProm emits
// (values stripped), every StatsMap key, and every key of the simulation
// JSONL record, per engine. Dashboards key on these names; a change to how
// the exporters derive them must leave these lists as they are.

import (
	"bytes"
	"encoding/json"
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/simulation"
	"github.com/stm-go/stm/stmobs"
)

var goldenProm = map[stm.Engine]string{
	stm.ST: `
		# TYPE stm_abort_seconds histogram
		# TYPE stm_aborts_total counter
		# TYPE stm_attempts_total counter
		# TYPE stm_commit_seconds histogram
		# TYPE stm_commits_total counter
		# TYPE stm_failures_total counter
		# TYPE stm_helps_total counter
		# TYPE stm_obs_level gauge
		# TYPE stm_owned_words_total counter
		# TYPE stm_read_only_commits_total counter
		# TYPE stm_read_set_words histogram
		# TYPE stm_snapshot_extensions_total counter
		# TYPE stm_snapshot_rechecked_words_total counter
		# TYPE stm_snapshot_stale_total counter
		# TYPE stm_write_set_words histogram
		stm_abort_seconds_bucket{memory="golden",engine="st"}
		stm_abort_seconds_count{memory="golden",engine="st"}
		stm_abort_seconds_sum{memory="golden",engine="st"}
		stm_aborts_total{memory="golden",engine="st",reason="st-conflict"}
		stm_aborts_total{memory="golden",engine="st",reason="st-helped"}
		stm_aborts_total{memory="golden",engine="st",reason="st-validate"}
		stm_attempts_total{memory="golden",engine="st"}
		stm_commit_seconds_bucket{memory="golden",engine="st"}
		stm_commit_seconds_count{memory="golden",engine="st"}
		stm_commit_seconds_sum{memory="golden",engine="st"}
		stm_commits_total{memory="golden",engine="st"}
		stm_failures_total{memory="golden",engine="st"}
		stm_helps_total{memory="golden",engine="st"}
		stm_obs_level{memory="golden",engine="st"}
		stm_owned_words_total{memory="golden",engine="st"}
		stm_read_only_commits_total{memory="golden",engine="st"}
		stm_read_set_words_bucket{memory="golden",engine="st"}
		stm_read_set_words_count{memory="golden",engine="st"}
		stm_read_set_words_sum{memory="golden",engine="st"}
		stm_snapshot_extensions_total{memory="golden",engine="st"}
		stm_snapshot_rechecked_words_total{memory="golden",engine="st"}
		stm_snapshot_stale_total{memory="golden",engine="st"}
		stm_write_set_words_bucket{memory="golden",engine="st"}
		stm_write_set_words_count{memory="golden",engine="st"}
		stm_write_set_words_sum{memory="golden",engine="st"}`,
	stm.TL2: `
		# TYPE stm_abort_seconds histogram
		# TYPE stm_aborts_total counter
		# TYPE stm_attempts_total counter
		# TYPE stm_commit_seconds histogram
		# TYPE stm_commits_total counter
		# TYPE stm_failures_total counter
		# TYPE stm_helps_total counter
		# TYPE stm_obs_level gauge
		# TYPE stm_read_only_commits_total counter
		# TYPE stm_read_set_words histogram
		# TYPE stm_snapshot_extensions_total counter
		# TYPE stm_snapshot_rechecked_words_total counter
		# TYPE stm_snapshot_stale_total counter
		# TYPE stm_tl2_clock_adoptions_total counter
		# TYPE stm_tl2_clock_races_total counter
		# TYPE stm_tl2_read_only_commits_total counter
		# TYPE stm_write_set_words histogram
		stm_abort_seconds_bucket{memory="golden",engine="tl2"}
		stm_abort_seconds_count{memory="golden",engine="tl2"}
		stm_abort_seconds_sum{memory="golden",engine="tl2"}
		stm_aborts_total{memory="golden",engine="tl2",reason="tl2-lock"}
		stm_aborts_total{memory="golden",engine="tl2",reason="tl2-read"}
		stm_aborts_total{memory="golden",engine="tl2",reason="tl2-validate"}
		stm_attempts_total{memory="golden",engine="tl2"}
		stm_commit_seconds_bucket{memory="golden",engine="tl2"}
		stm_commit_seconds_count{memory="golden",engine="tl2"}
		stm_commit_seconds_sum{memory="golden",engine="tl2"}
		stm_commits_total{memory="golden",engine="tl2"}
		stm_failures_total{memory="golden",engine="tl2"}
		stm_helps_total{memory="golden",engine="tl2"}
		stm_obs_level{memory="golden",engine="tl2"}
		stm_read_only_commits_total{memory="golden",engine="tl2"}
		stm_read_set_words_bucket{memory="golden",engine="tl2"}
		stm_read_set_words_count{memory="golden",engine="tl2"}
		stm_read_set_words_sum{memory="golden",engine="tl2"}
		stm_snapshot_extensions_total{memory="golden",engine="tl2"}
		stm_snapshot_rechecked_words_total{memory="golden",engine="tl2"}
		stm_snapshot_stale_total{memory="golden",engine="tl2"}
		stm_tl2_clock_adoptions_total{memory="golden",engine="tl2"}
		stm_tl2_clock_races_total{memory="golden",engine="tl2"}
		stm_tl2_read_only_commits_total{memory="golden",engine="tl2"}
		stm_write_set_words_bucket{memory="golden",engine="tl2"}
		stm_write_set_words_count{memory="golden",engine="tl2"}
		stm_write_set_words_sum{memory="golden",engine="tl2"}`,
}

var goldenStatsMap = map[stm.Engine]string{
	stm.ST: `
		aborts_st_conflict aborts_st_helped aborts_st_validate attempts commits
		engine failures helps hist_commit_nanos hist_read_set hist_write_set
		obs_level owned_words read_only_commits snapshot_extensions
		snapshot_rechecked snapshot_stale`,
	stm.TL2: `
		aborts_tl2_lock aborts_tl2_read aborts_tl2_validate attempts commits engine
		failures helps hist_commit_nanos hist_read_set hist_write_set obs_level
		read_only_commits snapshot_extensions snapshot_rechecked snapshot_stale
		tl2_clock_adoptions tl2_clock_races tl2_read_only_commits`,
}

var goldenJSONL = map[stm.Engine]string{
	stm.ST: `
		aborts_st_conflict aborts_st_helped aborts_st_validate attempts checks
		commits duration_ms engine failures fault_injectors helps
		hist_commit_nanos hist_read_set hist_write_set ops owned_words
		read_only_commits scenario seed snapshot_extensions snapshot_rechecked
		snapshot_stale verdict`,
	stm.TL2: `
		aborts_tl2_lock aborts_tl2_read aborts_tl2_validate attempts checks
		commits duration_ms engine failures fault_injectors helps
		hist_commit_nanos hist_read_set hist_write_set ops
		read_only_commits scenario seed snapshot_extensions snapshot_rechecked
		snapshot_stale tl2_clock_adoptions tl2_clock_races
		tl2_read_only_commits verdict`,
}

// lines splits a golden list into its trimmed non-empty lines.
func lines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}

// leLabel is the per-bucket label of a histogram series; the golden lists
// keep one line per histogram series family instead of one per bucket.
var leLabel = regexp.MustCompile(`,?le="[^"]*"`)

// exportedNames drives one writing and one read-only transaction on a fresh
// histogram-level Memory and returns its exports: the sorted Prometheus
// lines with values stripped, the StatsMap, and the sorted JSONL keys.
func exportedNames(t *testing.T, eng stm.Engine) (prom []string, sm map[string]any, jsonl []string) {
	t.Helper()
	m := newMem(t, eng)
	addWord(m, 0, 1)
	if err := m.Atomically(func(tx *stm.DTx) error { tx.Read(1); return nil }); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	stmobs.WriteProm(&b, "golden", m)
	for _, line := range lines(b.String()) {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		line = strings.Replace(leLabel.ReplaceAllString(line, ""), "{}", "", 1)
		if !slices.Contains(prom, line) {
			prom = append(prom, line)
		}
	}
	slices.Sort(prom)

	var out bytes.Buffer
	if err := simulation.WriteJSONL(&out, []simulation.Result{{Engine: eng, Stats: m.Stats()}}); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	return prom, stmobs.StatsMap(m), slices.Sorted(maps.Keys(rec))
}

// TestStatsExportNames compares each engine's export vocabulary with the
// golden lists. A golden JSONL key may be absent only while StatsMap reports
// its counter as 0: the record used to drop zero engine counters through
// omitempty, and carrying them as 0 is the one permitted difference.
func TestStatsExportNames(t *testing.T) {
	for _, eng := range stm.Engines() {
		prom, sm, jsonl := exportedNames(t, eng)
		if want := lines(goldenProm[eng]); !slices.Equal(prom, want) {
			t.Errorf("%v: Prometheus lines changed:\ngot:\n%s\nwant:\n%s", eng, strings.Join(prom, "\n"), strings.Join(want, "\n"))
		}
		if got, want := slices.Sorted(maps.Keys(sm)), strings.Fields(goldenStatsMap[eng]); !slices.Equal(got, want) {
			t.Errorf("%v: StatsMap keys changed:\ngot  %v\nwant %v", eng, got, want)
		}
		want := strings.Fields(goldenJSONL[eng])
		for _, k := range want {
			if !slices.Contains(jsonl, k) && sm[k] != uint64(0) {
				t.Errorf("%v: JSONL record lost key %q", eng, k)
			}
		}
		for _, k := range jsonl {
			if !slices.Contains(want, k) {
				t.Errorf("%v: JSONL record has unknown key %q", eng, k)
			}
		}
	}
}
