package stmserve

// Serving-layer telemetry tests: exact per-class counters under
// pipelining, the connection lifecycle counters over a real listener,
// histogram/counter consistency, a snapshot-under-load race exercise, and
// the flight recorder's server vocabulary. Everything runs on both
// engines: the metrics layer must not care which commit protocol is
// underneath.

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
)

// classCount pulls one class's snapshot out of a Metrics value.
func classCount(t *testing.T, m Metrics, class string) CommandMetrics {
	t.Helper()
	for _, c := range m.Commands {
		if c.Class == class {
			return c
		}
	}
	t.Fatalf("class %q not in Metrics.Commands", class)
	return CommandMetrics{}
}

func TestMetricsCommandCounts(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		var out bytes.Buffer
		s := srv.NewSession(&out)
		mustFeed := func(in string) {
			t.Helper()
			if err := s.Feed([]byte(in)); err != nil {
				t.Fatalf("Feed(%q): %v", in, err)
			}
		}
		mustFeed("PING\r\n")
		mustFeed("SET k v\r\nGET k\r\nGET k\r\n")
		mustFeed("MULTI\r\nINCR n\r\nINCR n\r\nEXEC\r\n")
		mustFeed("QPUSH q a\r\nQPUSH q b\r\nQPOP q\r\n")
		mustFeed("NOSUCH\r\n")
		mustFeed("BQPOP q\r\n") // element waiting: served without parking

		m := srv.Metrics()
		if m.Engine != eng {
			t.Errorf("Metrics.Engine = %v, want %v", m.Engine, eng)
		}
		// Exact per-class counts for the script above. MULTI counts its
		// protocol plumbing (MULTI + one QUEUED per queued command); EXEC
		// expands so the inner INCRs are charged to their own class.
		for class, want := range map[string]uint64{
			"ping": 1, "set": 1, "get": 2,
			"multi": 3, "exec": 1, "incr": 2,
			"qpush": 2, "qpop": 1, "bqpop": 1,
			"err": 1, "del": 0, "zadd": 0,
		} {
			if got := classCount(t, m, class).Count; got != want {
				t.Errorf("class %s count = %d, want %d", class, got, want)
			}
		}
		// Every executed command was also charged one latency observation.
		for _, c := range m.Commands {
			if got := c.Latency.Total(); got != c.Count {
				t.Errorf("class %s: latency total %d != count %d", c.Class, got, c.Count)
			}
		}
		// Five non-blocking Feeds committed five batches (of 1, 3, 4, 3, 1).
		if got := m.BatchCommands.Total(); got != 5 {
			t.Errorf("batch observations = %d, want 5", got)
		}
		// Depth observations: two QPUSHes (depths 1, 2) and one served
		// blocking pop (depth 0 after the take).
		if got := m.QueueDepth.Total(); got != 3 {
			t.Errorf("queue-depth observations = %d, want 3", got)
		}
	})
}

func TestMetricsPoisonedSession(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		var out bytes.Buffer
		s := srv.NewSession(&out)
		if err := s.Feed([]byte("*bad\r\n")); err != ErrSessionClosed {
			t.Fatalf("Feed(malformed) = %v, want ErrSessionClosed", err)
		}
		m := srv.Metrics()
		if m.ConnsPoisoned != 1 {
			t.Errorf("ConnsPoisoned = %d, want 1", m.ConnsPoisoned)
		}
		if got := classCount(t, m, "err").Count; got != 1 {
			t.Errorf("err class count = %d, want 1", got)
		}
	})
}

// TestMetricsLifecycleTCP drives the connection counters over a real
// listener: accepted rises per connection, active tracks open ones, a
// clean client close is not a kill, and Server.Close counts the
// connections it severs.
func TestMetricsLifecycleTCP(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)

		dial := func() net.Conn {
			t.Helper()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		roundTrip := func(c net.Conn) {
			t.Helper()
			if _, err := c.Write([]byte("PING\r\n")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 16)
			if _, err := c.Read(buf); err != nil {
				t.Fatal(err)
			}
		}

		c1, c2 := dial(), dial()
		roundTrip(c1)
		roundTrip(c2)
		m := srv.Metrics()
		if m.ConnsAccepted != 2 || m.ConnsActive != 2 {
			t.Errorf("after 2 dials: accepted=%d active=%d, want 2/2", m.ConnsAccepted, m.ConnsActive)
		}

		// Clean close: active drains, nothing is "killed".
		c1.Close()
		deadline := time.Now().Add(2 * time.Second)
		for srv.Metrics().ConnsActive != 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		m = srv.Metrics()
		if m.ConnsActive != 1 || m.ConnsKilled != 0 {
			t.Errorf("after client close: active=%d killed=%d, want 1/0", m.ConnsActive, m.ConnsKilled)
		}

		// Server Close severs the remaining connection and counts it.
		srv.Close()
		m = srv.Metrics()
		if m.ConnsKilled != 1 {
			t.Errorf("after server Close: killed=%d, want 1", m.ConnsKilled)
		}
		if m.ConnsActive != 0 {
			t.Errorf("after server Close: active=%d, want 0", m.ConnsActive)
		}
		c2.Close()
	})
}

// TestMetricsSnapshotUnderLoad races sessions feeding commands against
// snapshot and export readers. Run under -race this is the proof that the
// striped counters, the live-set fold, and the flight ring are
// data-race-free; without -race it still checks monotonicity.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		const workers = 4
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var sink sinkWriter
				s := srv.NewSession(&sink)
				script := []byte("SET k v\r\nGET k\r\nINCR n\r\nQPUSH q x\r\nQPOP q\r\n")
				for i := 0; i < 300; i++ {
					if err := s.Feed(script); err != nil {
						t.Errorf("worker %d: Feed: %v", w, err)
						return
					}
				}
			}(w)
		}
		go func() { wg.Wait(); close(stop) }()

		var last uint64
		var promSink bytes.Buffer
		for {
			m := srv.Metrics()
			var total uint64
			for _, c := range m.Commands {
				total += c.Count
			}
			if total < last {
				t.Errorf("command total went backwards: %d -> %d", last, total)
			}
			last = total
			promSink.Reset()
			srv.WritePrometheus(&promSink)
			_ = srv.DumpFlight(&promSink)
			select {
			case <-stop:
				// Workers have joined: the final snapshot must be exact.
				final := srv.Metrics()
				var got uint64
				for _, c := range final.Commands {
					got += c.Count
				}
				if want := uint64(workers * 300 * 5); got != want {
					t.Errorf("final command total = %d, want %d", got, want)
				}
				return
			default:
			}
		}
	})
}

func TestWritePrometheusServerNames(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		var out bytes.Buffer
		s := srv.NewSession(&out)
		if err := s.Feed([]byte("SET k v\r\nGET k\r\nQPUSH q x\r\n")); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		srv.WritePrometheus(&b)
		body := b.String()
		engLabel := `engine="` + eng.String() + `"`
		for _, want := range []string{
			"# TYPE stmserve_commands_total counter",
			"stmserve_commands_total{" + engLabel + `,class="get"} 1`,
			"stmserve_commands_total{" + engLabel + `,class="set"} 1`,
			"stmserve_commands_total{" + engLabel + `,class="zadd"} 0`,
			"# TYPE stmserve_command_seconds histogram",
			"stmserve_command_seconds_count{" + engLabel + `,class="get"} 1`,
			"stmserve_batch_commands_bucket{" + engLabel + `,le="+Inf"} 1`,
			"stmserve_queue_depth_count{" + engLabel + "} 1",
			"stmserve_connections_accepted_total{" + engLabel + "} 0",
			"stmserve_connections_active{" + engLabel + "} 0",
			"stmserve_connections_poisoned_total{" + engLabel + "} 0",
			"stmserve_connections_killed_total{" + engLabel + "} 0",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("WritePrometheus missing %q in:\n%s", want, body)
			}
		}
		// Zero-count classes must not emit empty histograms.
		if strings.Contains(body, `stmserve_command_seconds_count{`+engLabel+`,class="zadd"}`) {
			t.Error("histogram emitted for a class that never executed")
		}
	})
}

// TestServerFlightVocabulary: the flight recorder retains the server's
// command/batch/session events and DumpFlight renders them with the
// server vocabulary.
func TestServerFlightVocabulary(t *testing.T) {
	srv := newTestServer(t, stm.ST)
	var out bytes.Buffer
	s := srv.NewSession(&out)
	if err := s.Feed([]byte("SET k v\r\nGET k\r\n")); err != nil {
		t.Fatal(err)
	}
	s.retire()
	var b bytes.Buffer
	if err := srv.DumpFlight(&b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, want := range []string{
		"flight recorder:",
		"session open",
		"batch cmds=2 classes=get,set took=",
		"session close",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("DumpFlight missing %q in:\n%s", want, dump)
		}
	}
}

// TestServerFlightOneEventPerBatch: a batch transaction leaves one flight
// event, however many commands it ran — MULTI/EXEC included — while the
// per-class counters still count every command.
func TestServerFlightOneEventPerBatch(t *testing.T) {
	srv := newTestServer(t, stm.ST)
	var out bytes.Buffer
	s := srv.NewSession(&out)
	for _, tc := range []struct{ in, want string }{
		{"SET a 1\r\nSET b 2\r\nGET a\r\nINCR n\r\nQPUSH q x\r\n", "batch cmds=5 classes=get,set,incr,qpush took="},
		{"MULTI\r\nSET a 3\r\nGET b\r\nDEL a\r\nEXEC\r\n", "batch cmds=5 classes=get,set,del,multi,exec took="},
		{"BQPOP q\r\n", "batch cmds=1 classes=bqpop took="},
	} {
		before := srv.Flight().Total()
		if err := s.Feed([]byte(tc.in)); err != nil {
			t.Fatal(err)
		}
		if got := srv.Flight().Total() - before; got != 1 {
			t.Errorf("Feed(%q) recorded %d flight events, want 1", tc.in, got)
		}
		var b bytes.Buffer
		if err := srv.DumpFlight(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), tc.want) {
			t.Errorf("Feed(%q): dump lacks %q:\n%s", tc.in, tc.want, b.String())
		}
	}
	s.retire()
	// The queued SET is charged to multi when queued and to set in EXEC.
	m := srv.Metrics()
	if set, multi := classCount(t, m, "set").Count, classCount(t, m, "multi").Count; set != 3 || multi != 4 {
		t.Errorf("set/multi counts = %d/%d, want 3/4", set, multi)
	}
}

// TestSessionRetireIdempotent: retiring twice must not double-fold the
// stripe into the dead accumulator.
func TestSessionRetireIdempotent(t *testing.T) {
	srv := newTestServer(t, stm.ST)
	var out bytes.Buffer
	s := srv.NewSession(&out)
	if err := s.Feed([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	s.retire()
	s.retire()
	if got := classCount(t, srv.Metrics(), "ping").Count; got != 1 {
		t.Errorf("ping count after double retire = %d, want 1", got)
	}
}
