package stmserve

// Allocation pins for the server's steady-state command path. After
// warmup (session scratch at capacity, op pools primed, the key present),
// a single-key command fed end to end — bytes in, parse, plan, one
// transactional commit, reply bytes staged and flushed — must not touch
// the heap on either engine. This is the property that makes the server a
// credible STM benchmark harness rather than a GC benchmark.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
)

func assertAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if got := testing.AllocsPerRun(200, fn); got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.1f", name, got, want)
	}
}

// sinkWriter swallows replies without allocating — the alloc pins measure
// the server, not the transport.
type sinkWriter struct{ n int }

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func TestAllocsSteadyStateFeed(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		// Full telemetry on: the serving-layer metrics are always on, and the
		// engine's histogram level is the most observability a production
		// deployment runs with. The pins below must hold regardless.
		srv.Memory().Observe(stm.ObsConfig{Level: stm.ObsHistograms})
		var w sinkWriter
		s := srv.NewSession(&w)

		set := []byte("SET bench:key some-value-of-reasonable-size\r\n")
		get := []byte("GET bench:key\r\n")
		incr := []byte("INCR bench:ctr\r\n")
		qpush := []byte("QPUSH bench:q element\r\n")
		qpop := []byte("QPOP bench:q\r\n")
		mget := []byte("*2\r\n$3\r\nGET\r\n$9\r\nbench:key\r\n")

		mustFeed := func(p []byte) {
			t.Helper()
			if err := s.Feed(p); err != nil {
				t.Fatalf("Feed: %v", err)
			}
		}
		// Warm every pool and scratch buffer to steady state.
		for i := 0; i < 64; i++ {
			mustFeed(set)
			mustFeed(get)
			mustFeed(mget)
			mustFeed(incr)
			mustFeed(qpush)
			mustFeed(qpop)
		}

		assertAllocs(t, "Feed/GET", 0, func() { mustFeed(get) })
		assertAllocs(t, "Feed/GET-resp-array", 0, func() { mustFeed(mget) })
		assertAllocs(t, "Feed/SET", 0, func() { mustFeed(set) })
		assertAllocs(t, "Feed/INCR", 0, func() { mustFeed(incr) })
		assertAllocs(t, "Feed/QPUSH+QPOP", 0, func() { mustFeed(qpush); mustFeed(qpop) })

		// A pipelined burst: eight commands, one commit, still zero.
		var burst []byte
		for i := 0; i < 8; i++ {
			burst = append(burst, get...)
		}
		mustFeed(burst)
		assertAllocs(t, "Feed/GETx8-pipelined", 0, func() { mustFeed(burst) })

		// The zero-alloc runs above were measured, not metered-off: the
		// telemetry they exercised must actually have counted them.
		m := srv.Metrics()
		for _, class := range []string{"get", "set", "incr", "qpush", "qpop"} {
			for _, c := range m.Commands {
				if c.Class == class && c.Count == 0 {
					t.Errorf("class %s counted 0 commands with metrics on", class)
				}
			}
		}
		if m.BatchCommands.Total() == 0 || m.QueueDepth.Total() == 0 {
			t.Errorf("batch/depth histograms empty: %d/%d observations",
				m.BatchCommands.Total(), m.QueueDepth.Total())
		}
		// The snapshot and export paths may allocate (they build the copy) —
		// but taking them must not disturb the command path's zero.
		srv.Metrics()
		assertAllocs(t, "Feed/GET-after-snapshot", 0, func() { mustFeed(get) })
	})
}

// TestDefaultServerFootprint pins what a default server holds live: its
// Memory builds words a chunk at a time on first write, so New plus a few
// SETs holds the chunks those SETs wrote, not the 64 MiB a 1<<20-word
// Memory spans once every word is written.
func TestDefaultServerFootprint(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv, err := New(Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var in strings.Builder
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&in, "SET key-%d value-%d\r\n", i, i)
		}
		if got := feed(t, srv, in.String()); got != strings.Repeat("+OK\r\n", 16) {
			t.Fatalf("replies %q, want 16 OKs", got)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 8<<20 {
			t.Errorf("a default server and 16 SETs hold %d B more heap, want < 8 MiB", grew)
		}
		runtime.KeepAlive(srv)
	})
}
