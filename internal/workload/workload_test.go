// Package workload_test runs every simulated benchmark of package bench
// through its exported entry point, bench.Run: each method on each
// machine completes operations, outcomes are deterministic per seed, bad
// specs are refused, and stalls hurt the blocking methods most.
package workload_test

import (
	"strings"
	"testing"

	"github.com/stm-go/stm/internal/bench"
	"github.com/stm-go/stm/internal/sim"
)

const testDuration = 300_000 // cycles; enough for hundreds of ops

func runSpec(t *testing.T, spec bench.Spec) bench.Outcome {
	t.Helper()
	out, err := bench.Run(spec)
	if err != nil {
		t.Fatalf("bench.Run(%+v): %v", spec, err)
	}
	return out
}

func TestRunValidation(t *testing.T) {
	if _, err := bench.Run(bench.Spec{Kind: bench.KindCounting, Method: bench.MethodSTM, Arch: bench.ArchBus, Procs: 0, Duration: 1000}); err == nil {
		t.Error("Procs=0: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: bench.KindCounting, Method: bench.MethodSTM, Arch: bench.ArchBus, Procs: 1, Duration: 0}); err == nil {
		t.Error("Duration=0: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: "bogus", Method: bench.MethodSTM, Arch: bench.ArchBus, Procs: 1, Duration: 1000}); err == nil {
		t.Error("unknown kind: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: bench.KindCounting, Method: "bogus", Arch: bench.ArchBus, Procs: 1, Duration: 1000}); err == nil {
		t.Error("unknown method: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: bench.KindCounting, Method: bench.MethodSTM, Arch: "bogus", Procs: 1, Duration: 1000}); err == nil {
		t.Error("unknown arch: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: bench.KindQueue, Method: bench.MethodSTM, Arch: bench.ArchBus, Procs: 1, Duration: 1000, QueueCap: -1}); err == nil {
		t.Error("negative queue cap: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: bench.KindResAlloc, Method: bench.MethodSTM, Arch: bench.ArchBus, Procs: 1, Duration: 1000, Pools: 4, K: 9}); err == nil {
		t.Error("K > Pools: want error")
	}
	if _, err := bench.Run(bench.Spec{Kind: bench.KindResAlloc, Method: bench.MethodHerlihy, Arch: bench.ArchBus, Procs: 1, Duration: 1000}); err == nil {
		t.Error("resalloc+herlihy: want not-implemented error")
	}
}

func TestCountingAllMethodsBothArchs(t *testing.T) {
	methods := []bench.Method{bench.MethodSTM, bench.MethodSTMNoHelp, bench.MethodSTMUnsorted, bench.MethodHerlihy, bench.MethodTTAS, bench.MethodMCS}
	for _, arch := range []bench.Arch{bench.ArchBus, bench.ArchNet} {
		for _, method := range methods {
			method, arch := method, arch
			t.Run(string(arch)+"/"+string(method), func(t *testing.T) {
				out := runSpec(t, bench.Spec{
					Kind: bench.KindCounting, Method: method, Arch: arch,
					Procs: 4, Duration: testDuration, Seed: 7,
				})
				if out.Ops <= 0 {
					t.Fatalf("no operations completed")
				}
				if out.Throughput <= 0 {
					t.Fatalf("throughput = %f", out.Throughput)
				}
				// Traffic counters must be present per arch.
				key := "bus_transactions"
				if arch == bench.ArchNet {
					key = "remote_ops"
				}
				if _, ok := out.Extra[key]; !ok {
					t.Errorf("missing %s in Extra: %v", key, out.Extra)
				}
			})
		}
	}
}

func TestQueueAllMethods(t *testing.T) {
	methods := []bench.Method{bench.MethodSTM, bench.MethodHerlihy, bench.MethodTTAS, bench.MethodMCS}
	for _, method := range methods {
		method := method
		t.Run(string(method), func(t *testing.T) {
			out := runSpec(t, bench.Spec{
				Kind: bench.KindQueue, Method: method, Arch: bench.ArchBus,
				Procs: 4, Duration: testDuration, Seed: 11, QueueCap: 8,
			})
			if out.Ops <= 0 {
				t.Fatal("no queue operations completed")
			}
		})
	}
}

func TestQueueSingleProcAlternates(t *testing.T) {
	out := runSpec(t, bench.Spec{
		Kind: bench.KindQueue, Method: bench.MethodSTM, Arch: bench.ArchBus,
		Procs: 1, Duration: testDuration, Seed: 3, QueueCap: 4,
	})
	// A lone processor alternates enqueue/dequeue, so it must keep making
	// progress well beyond one queue capacity.
	if out.Ops < 20 {
		t.Errorf("single-processor queue completed only %d ops", out.Ops)
	}
}

func TestResAllocSTMVariants(t *testing.T) {
	for _, method := range []bench.Method{bench.MethodSTM, bench.MethodSTMNoHelp, bench.MethodSTMUnsorted, bench.MethodMCS} {
		method := method
		t.Run(string(method), func(t *testing.T) {
			out := runSpec(t, bench.Spec{
				Kind: bench.KindResAlloc, Method: method, Arch: bench.ArchBus,
				Procs: 4, Duration: testDuration, Seed: 13, Pools: 8, K: 2,
			})
			if out.Ops <= 0 {
				t.Fatal("no acquire/release cycles completed")
			}
		})
	}
}

func TestDeterministicOutcomes(t *testing.T) {
	spec := bench.Spec{
		Kind: bench.KindCounting, Method: bench.MethodSTM, Arch: bench.ArchBus,
		Procs: 4, Duration: testDuration, Seed: 21,
	}
	a := runSpec(t, spec)
	b := runSpec(t, spec)
	if a.Ops != b.Ops || a.Throughput != b.Throughput {
		t.Errorf("same seed, different outcomes: %d vs %d ops", a.Ops, b.Ops)
	}
	spec.Seed = 22
	c := runSpec(t, spec)
	if c.Ops == a.Ops {
		t.Log("different seed produced identical op count (possible but unusual)")
	}
}

func TestStallInjectionRuns(t *testing.T) {
	// F5 plumbing: stalled runs must complete and stay correct.
	for _, method := range []bench.Method{bench.MethodSTM, bench.MethodTTAS, bench.MethodMCS} {
		method := method
		t.Run(string(method), func(t *testing.T) {
			out := runSpec(t, bench.Spec{
				Kind: bench.KindCounting, Method: method, Arch: bench.ArchBus,
				Procs: 4, Duration: testDuration, Seed: 5,
				Stall: &sim.StallPlan{Procs: 1, Period: 40, Duration: 30_000},
			})
			if out.Ops < 0 {
				t.Fatal("negative ops")
			}
		})
	}
}

// TestStallHurtsLocksMoreThanSTM is the heart of experiment F5: with one
// processor being preempted regularly, the blocking methods lose far more
// throughput than the non-blocking STM, because a preempted lock holder
// blocks everyone while a preempted transaction gets helped.
func TestStallHurtsLocksMoreThanSTM(t *testing.T) {
	const dur = 2_000_000
	stall := &sim.StallPlan{Procs: 1, Period: 10, Duration: 100_000}
	ratio := func(method bench.Method) float64 {
		base := runSpec(t, bench.Spec{
			Kind: bench.KindCounting, Method: method, Arch: bench.ArchBus,
			Procs: 8, Duration: dur, Seed: 17,
		})
		stalled := runSpec(t, bench.Spec{
			Kind: bench.KindCounting, Method: method, Arch: bench.ArchBus,
			Procs: 8, Duration: dur, Seed: 17, Stall: stall,
		})
		return stalled.Throughput / base.Throughput
	}
	stm := ratio(bench.MethodSTM)
	mcs := ratio(bench.MethodMCS)
	if stm <= mcs {
		t.Errorf("retained throughput under stalls: stm %.3f ≤ mcs %.3f; non-blocking advantage missing", stm, mcs)
	}
}

func TestMethodAndKindStringsStable(t *testing.T) {
	// The experiment harness round-trips these through CLI flags; keep the
	// canonical names free of whitespace and stable.
	names := []string{
		string(bench.MethodSTM), string(bench.MethodSTMNoHelp), string(bench.MethodSTMUnsorted),
		string(bench.MethodHerlihy), string(bench.MethodTTAS), string(bench.MethodMCS),
		string(bench.KindCounting), string(bench.KindQueue), string(bench.KindResAlloc),
		string(bench.ArchBus), string(bench.ArchNet),
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || strings.ContainsAny(n, " \t\n") {
			t.Errorf("bad identifier %q", n)
		}
		if seen[n] {
			t.Errorf("duplicate identifier %q", n)
		}
		seen[n] = true
	}
}
