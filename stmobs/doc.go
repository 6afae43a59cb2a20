// Package stmobs builds export surfaces on the stm package's observability
// seam: an HTTP admin endpoint (Prometheus /metrics, expvar /debug/vars,
// net/http/pprof), a lock-free flight recorder for dump-on-failure
// debugging, a ring buffer for sampled per-transaction traces, event
// counters, and runtime/pprof label tagging for goroutines that run
// transactions.
//
// # Observing a Memory
//
// The seam itself lives on stm.Memory (Observe, Stats, DebugString) and
// costs nothing until enabled: every hook on the attempt path is one
// predicted branch while the level is stm.ObsOff. A typical production
// setup enables counters and histograms, publishes them over expvar, and
// keeps a small trace ring for incident debugging:
//
//	tracer := stmobs.NewRingTracer(256)
//	m.Observe(stm.ObsConfig{
//		Level:       stm.ObsTrace,
//		Observer:    tracer,
//		SampleEvery: 1024,
//	})
//	stmobs.Publish("stm", m) // GET /debug/vars → {"stm": {...}, ...}
//
// Counters-only observation (stm.ObsCounters, typically with an
// EventCounter or no observer at all) adds the abort-reason taxonomy to
// m.Stats(); the histogram and trace levels buy latency distributions and
// sampled footprints on top. Every level keeps the hot paths at zero
// allocations per operation on both engines (pinned by the stm package's
// TestObsAllocFreeHooks and stmds's TestAllocsMapGetObserved); the
// wall-clock overhead of each level has not yet been measured on the
// benchmark of record.
//
// # The admin endpoint
//
// AdminMux mounts the three operational endpoints a deployment needs on
// one mux — Prometheus text-format /metrics over every Published Memory
// (plus any producer Collector, e.g. stmserve.Server's per-command
// metrics), expvar JSON at /debug/vars over the same registry, and the
// standard /debug/pprof profiles. ServeAdmin binds it on its own
// listener, deliberately separate from any serving port so scraping and
// profiling survive a saturated data plane:
//
//	stmobs.Publish("kv", m)
//	ln, err := stmobs.ServeAdmin("127.0.0.1:7172")
//	if err != nil { ... }
//	defer ln.Close()
//	// curl -s localhost:7172/metrics       → stm_attempts_total{memory="kv",...} ...
//	// curl -s localhost:7172/debug/vars    → {"kv": {...}}
//	// go tool pprof localhost:7172/debug/pprof/profile?seconds=5
//
// Publishing a name again replaces the Memory it serves — a harness that
// builds a fresh Memory per run keeps one stable metric name — and the
// expvar and Prometheus views read through the same registry, so they can
// never disagree about which Memory a name means.
//
// # The flight recorder
//
// FlightRecorder is the dump-on-failure complement to the metrics above: a
// fixed-size lock-free ring of recent four-word events, cheap enough
// (one atomic counter bump, four relaxed stores) to leave always-on under
// every command of a production server. Producers Record their own event
// vocabulary; registered as an stm.Observer it also retains recent engine
// aborts. When something dies — SIGQUIT, a panic, a simulation invariant
// violation — Dump writes the retained history, newest context included,
// next to whatever replay information the failure printed. cmd/stmserve
// and the simulation harness wire all three dump sites.
//
// To attribute CPU profiles to transaction sites, wrap workers with Do,
// which tags the goroutine with pprof labels for the Memory's engine and
// the site name:
//
//	go stmobs.Do(ctx, m, "transfer-worker", func(ctx context.Context) {
//		for { ... m.Atomically(...) ... }
//	})
//
// See DESIGN.md §12 for the seam's architecture: the per-engine event
// matrix, the abort taxonomy, histogram binning, and the coarse-ticks
// precision contract behind the latency numbers — and §15 for the admin
// endpoint's stable metric names and the flight recorder's design trade.
package stmobs
