package main

import stm "github.com/stm-go/stm"

// metricDef is one row of the benchmark's metric table. BENCHMARK.json
// repeats the table for the driver; -check keeps the two the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var engines = []stm.Engine{stm.ST, stm.TL2}

func perEngine(defs ...metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		for _, e := range engines {
			d2 := d
			d2.Name = d.Name + "." + e.String()
			out = append(out, d2)
		}
	}
	return out
}

// endToEnd is what a user of the system sees, and what a later change is
// gated on. Bounds are the share of the parent's median by which a metric
// may worsen; they sit at the contract's cap because this shared host
// does. README.md has the run-to-run spread each was sized from, and why
// the latency percentiles are reported with every run (and per-layer, as
// client.lat_*) but not gated.
var endToEnd = append(perEngine(
	metricDef{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
), metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25})

// latencies are measured, printed, stored and compared in every run, but
// no bound rides on them.
var latencies = perEngine(
	metricDef{Name: "lat_p50_us", Unit: "us", Better: "lower"},
	metricDef{Name: "lat_p99_us", Unit: "us", Better: "lower"},
)

// perLayer is what the traced run reports, one layer per name prefix.
// A metric that does not apply to a workload (tcp.* and stmserve.* on
// lib-map, stmds.scale_ratio on the TCP workloads) reads 0 there.
var perLayer = append(perEngine(
	metricDef{Name: "client.lat_p50_us", Unit: "us", Better: "lower"},
	metricDef{Name: "client.lat_p99_us", Unit: "us", Better: "lower"},
	metricDef{Name: "tcp.in_us", Unit: "us", Better: "lower"},
	metricDef{Name: "tcp.write_us", Unit: "us", Better: "lower"},
	metricDef{Name: "tcp.out_us", Unit: "us", Better: "lower"},
	metricDef{Name: "tcp.reads_per_req", Unit: "count", Better: "lower"},
	metricDef{Name: "tcp.writes_per_req", Unit: "count", Better: "lower"},
	metricDef{Name: "tcp.bytes_in_per_op", Unit: "B", Better: "lower"},
	metricDef{Name: "tcp.bytes_out_per_op", Unit: "B", Better: "lower"},
	metricDef{Name: "stmserve.handle_us", Unit: "us", Better: "lower"},
	metricDef{Name: "stmserve.feed_ns_per_op", Unit: "ns", Better: "lower"},
	metricDef{Name: "stmserve.handoff_us", Unit: "us", Better: "lower"},
	metricDef{Name: "stmserve.ops_per_commit", Unit: "count", Better: "higher"},
	metricDef{Name: "stmserve.conns_poisoned", Unit: "count", Better: "lower"},
	metricDef{Name: "stmds.map_get_ns", Unit: "ns", Better: "lower"},
	metricDef{Name: "stmds.map_put_ns", Unit: "ns", Better: "lower"},
	metricDef{Name: "stmds.batch_ns_per_op", Unit: "ns", Better: "lower"},
	metricDef{Name: "stmds.scale_ratio", Unit: "ratio", Better: "higher"},
	metricDef{Name: "stm.atomically_ns", Unit: "ns", Better: "lower"},
	metricDef{Name: "core.attempt_ns", Unit: "ns", Better: "lower"},
	metricDef{Name: "core.attempts_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "core.commits_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "core.abort_ratio", Unit: "ratio", Better: "lower"},
	metricDef{Name: "core.words_allocated", Unit: "words", Better: "lower"},
	metricDef{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	metricDef{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	metricDef{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},
	metricDef{Name: "runtime.cpu_util", Unit: "ratio", Better: "higher"},
	metricDef{Name: "stmobs.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
),
	// Engine-specific protocol counters, per op.
	metricDef{Name: "core.helps_per_op.st", Unit: "count", Better: "lower"},
	metricDef{Name: "core.aborts_st_conflict", Unit: "count", Better: "lower"},
	metricDef{Name: "core.aborts_st_helped", Unit: "count", Better: "lower"},
	metricDef{Name: "core.aborts_tl2_read", Unit: "count", Better: "lower"},
	metricDef{Name: "core.aborts_tl2_lock", Unit: "count", Better: "lower"},
	metricDef{Name: "core.aborts_tl2_validate", Unit: "count", Better: "lower"},
	metricDef{Name: "core.tl2_clock_races", Unit: "count", Better: "lower"},
	metricDef{Name: "core.tl2_readonly_commits", Unit: "count", Better: "higher"},
)

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}
