package stmobs_test

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
)

func newMem(t *testing.T, eng stm.Engine) *stm.Memory {
	t.Helper()
	m, err := stm.New(8, stm.WithEngine(eng),
		stm.WithObs(stm.ObsConfig{Level: stm.ObsHistograms, SampleEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// addWord adds delta to the word at loc in one static transaction.
func addWord(m *stm.Memory, loc int, delta uint64) {
	tx, err := m.Prepare([]int{loc})
	if err != nil {
		panic(err)
	}
	tx.RunInto(func(o, n []uint64) { n[0] = o[0] + delta }, nil)
}

// TestPublishReplace: publishing a name again swaps which Memory it serves,
// for both expvar and the /metrics walk — the harness-republishes-per-run
// pattern.
func TestPublishReplace(t *testing.T) {
	m1 := newMem(t, stm.ST)
	m2 := newMem(t, stm.TL2)
	const name = "test_publish_replace"
	if err := stmobs.Publish(name, m1); err != nil {
		t.Fatalf("first Publish: %v", err)
	}
	if err := stmobs.Publish(name, m2); err != nil {
		t.Fatalf("re-Publish: %v", err)
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar.Get returned nil after Publish")
	}
	var sm map[string]any
	if err := json.Unmarshal([]byte(v.String()), &sm); err != nil {
		t.Fatalf("expvar value not JSON: %v", err)
	}
	if sm["engine"] != "tl2" {
		t.Errorf("after re-Publish, expvar serves engine=%v, want tl2 (the replacement)", sm["engine"])
	}
}

// TestPublishForeignCollision: a name already owned by an outside expvar
// publisher cannot be taken over.
func TestPublishForeignCollision(t *testing.T) {
	const name = "test_publish_foreign"
	expvar.Publish(name, expvar.Func(func() any { return 1 }))
	if err := stmobs.Publish(name, newMem(t, stm.ST)); err == nil {
		t.Error("Publish over a foreign expvar name succeeded, want error")
	}
}

// collector is a minimal producer Collector for AdminMux.
type collector struct{ body string }

func (c collector) WritePrometheus(w io.Writer) { io.WriteString(w, c.body) }

func TestAdminMuxMetrics(t *testing.T) {
	m := newMem(t, stm.TL2)
	for i := 0; i < 5; i++ {
		addWord(m, 0, 1)
	}
	if err := stmobs.Publish("test_admin_mux", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(stmobs.AdminMux(collector{body: "extra_metric_total 1\n"}))
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	for _, want := range []string{
		`stm_attempts_total{memory="test_admin_mux",engine="tl2"}`,
		`stm_commits_total{memory="test_admin_mux",engine="tl2"} 5`,
		`stm_aborts_total{memory="test_admin_mux",engine="tl2",reason="tl2-read"}`,
		`# TYPE stm_commit_seconds histogram`,
		`stm_commit_seconds_count{memory="test_admin_mux",engine="tl2"} 5`,
		"extra_metric_total 1", // the Collector's contribution
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	vars, _ := get("/debug/vars")
	var all map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &all); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := all["test_admin_mux"]; !ok {
		t.Error("/debug/vars missing the published memory")
	}

	if prof, _ := get("/debug/pprof/"); !strings.Contains(prof, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}

// TestWritePromHistBuckets pins the histogram exposition: cumulative
// buckets with le = 2^i - 1 upper bounds divided by perUnit, a final +Inf,
// count == total, and a lower-bound sum in the exported unit.
func TestWritePromHistBuckets(t *testing.T) {
	var h stm.HistogramSnapshot
	h.Counts[0] = 2 // value 0
	h.Counts[1] = 3 // value 1
	h.Counts[4] = 1 // values 8..15
	var b strings.Builder
	stmobs.WritePromHist(&b, "x", "", h, 1)
	stmobs.WritePromHist(&b, "x_seconds", `a="b"`, h, 1e9)
	out := b.String()
	for _, want := range []string{
		"# TYPE x histogram\n",
		"x_bucket{le=\"0\"} 2\n",
		"x_bucket{le=\"1\"} 5\n",
		"x_bucket{le=\"3\"} 5\n",
		"x_bucket{le=\"7\"} 5\n",
		"x_bucket{le=\"15\"} 6\n",
		"x_bucket{le=\"536870911\"} 6\n",
		"x_bucket{le=\"+Inf\"} 6\n",
		"x_sum 11\n",
		"x_count 6\n",
		"# TYPE x_seconds histogram\n",
		"x_seconds_bucket{a=\"b\",le=\"0\"} 2\n",
		"x_seconds_bucket{a=\"b\",le=\"0.000000001\"} 5\n",
		"x_seconds_bucket{a=\"b\",le=\"0.000000015\"} 6\n",
		"x_seconds_bucket{a=\"b\",le=\"0.536870911\"} 6\n",
		"x_seconds_sum{a=\"b\"} 0.000000011\n",
		"x_seconds_count{a=\"b\"} 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WritePromHist output missing %q in:\n%s", want, out)
		}
	}
}

// TestStatsMapTL2Keys pins the full TL2 key set of StatsMap: a dashboard
// keying on these names must not lose them silently.
func TestStatsMapTL2Keys(t *testing.T) {
	m := newMem(t, stm.TL2)
	addWord(m, 0, 1)
	sm := stmobs.StatsMap(m)
	for _, key := range []string{
		"engine", "obs_level", "attempts", "commits", "failures", "helps",
		"aborts_tl2_read", "aborts_tl2_lock", "aborts_tl2_validate",
		"tl2_read_only_commits", "tl2_clock_races", "tl2_clock_adoptions",
		"snapshot_extensions", "snapshot_rechecked", "snapshot_stale", "read_only_commits",
		"hist_commit_nanos", "hist_read_set",
	} {
		if _, ok := sm[key]; !ok {
			t.Errorf("TL2 StatsMap missing key %q", key)
		}
	}
	// And no ST keys bleed in.
	for _, key := range []string{"aborts_st_conflict", "aborts_st_helped"} {
		if _, ok := sm[key]; ok {
			t.Errorf("TL2 StatsMap carries ST key %q", key)
		}
	}
}
