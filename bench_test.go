package stm_test

// Benchmark harness: one testing.B entry per reproduced paper artifact
// (F1..F6, T1 — see DESIGN.md §5 and cmd/stmbench for the full sweeps) plus
// host-mode benchmarks (T2) that measure the real-goroutine build against
// conventional synchronization.
//
// Simulator benchmarks execute a fixed virtual-time simulation per
// iteration and report simulated throughput as a custom metric
// (simops/Mcycle); wall-clock ns/op measures the simulator itself, the
// custom metric reproduces the paper's y-axis.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/sim"
	"github.com/stm-go/stm/internal/workload"
)

const (
	simDuration = 200_000 // virtual cycles per simulator iteration
	simProcs    = 16
)

// benchSim runs one simulated workload point per b.N iteration and reports
// the simulated throughput (the paper's metric) alongside wall time.
func benchSim(b *testing.B, spec workload.Spec) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		spec.Seed = 1995 + uint64(i)
		out, err := workload.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = out.Throughput
	}
	b.ReportMetric(last, "simops/Mcycle")
}

func methodsFor(kind workload.Kind) []workload.Method {
	if kind == workload.KindResAlloc {
		return []workload.Method{
			workload.MethodSTM, workload.MethodSTMNoHelp, workload.MethodSTMUnsorted, workload.MethodMCS,
		}
	}
	return workload.Methods
}

func benchFigure(b *testing.B, kind workload.Kind, arch workload.Arch) {
	b.Helper()
	for _, method := range methodsFor(kind) {
		method := method
		b.Run(string(method), func(b *testing.B) {
			benchSim(b, workload.Spec{
				Kind:     kind,
				Method:   method,
				Arch:     arch,
				Procs:    simProcs,
				Duration: simDuration,
				QueueCap: 64,
				Pools:    16,
				K:        3,
			})
		})
	}
}

// BenchmarkF1CountingBus reproduces figure F1 (counting, bus machine) at
// P=16; run cmd/stmbench -exp F1 for the full processor sweep.
func BenchmarkF1CountingBus(b *testing.B) {
	benchFigure(b, workload.KindCounting, workload.ArchBus)
}

// BenchmarkF2CountingNet reproduces figure F2 (counting, network machine).
func BenchmarkF2CountingNet(b *testing.B) {
	benchFigure(b, workload.KindCounting, workload.ArchNet)
}

// BenchmarkF3QueueBus reproduces figure F3 (queue, bus machine).
func BenchmarkF3QueueBus(b *testing.B) {
	benchFigure(b, workload.KindQueue, workload.ArchBus)
}

// BenchmarkF4QueueNet reproduces figure F4 (queue, network machine).
func BenchmarkF4QueueNet(b *testing.B) {
	benchFigure(b, workload.KindQueue, workload.ArchNet)
}

// BenchmarkT1Breakdown reproduces table T1's underlying measurement: the
// STM counting run whose latency/failure/helping rates the table reports.
func BenchmarkT1Breakdown(b *testing.B) {
	benchSim(b, workload.Spec{
		Kind:     workload.KindCounting,
		Method:   workload.MethodSTM,
		Arch:     workload.ArchBus,
		Procs:    simProcs,
		Duration: simDuration,
	})
}

// BenchmarkF5Stalls reproduces figure F5: throughput with 2 of 16
// processors periodically preempted mid-transaction.
func BenchmarkF5Stalls(b *testing.B) {
	for _, method := range []workload.Method{workload.MethodSTM, workload.MethodTTAS, workload.MethodMCS} {
		method := method
		b.Run(string(method), func(b *testing.B) {
			benchSim(b, workload.Spec{
				Kind:     workload.KindCounting,
				Method:   method,
				Arch:     workload.ArchBus,
				Procs:    simProcs,
				Duration: simDuration,
				Stall:    &sim.StallPlan{Procs: 2, Period: 10, Duration: simDuration / 20},
			})
		})
	}
}

// BenchmarkF6Ablation reproduces figure F6: the design-choice ablation on
// k-way resource allocation.
func BenchmarkF6Ablation(b *testing.B) {
	benchFigure(b, workload.KindResAlloc, workload.ArchBus)
}

// ---------------------------------------------------------------------------
// T2: host-mode benchmarks — the real-goroutine library vs conventional
// synchronization on the machine running the tests.

// BenchmarkHostCounterSTM measures transactional fetch-and-increment.
func BenchmarkHostCounterSTM(b *testing.B) {
	m, err := stm.New(1)
	if err != nil {
		b.Fatal(err)
	}
	tx, err := m.Prepare([]int{0})
	if err != nil {
		b.Fatal(err)
	}
	inc := func(o, n []uint64) { n[0] = o[0] + 1 }
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx.RunInto(inc, nil)
		}
	})
}

// BenchmarkHostCounterMutex is the sync.Mutex baseline.
func BenchmarkHostCounterMutex(b *testing.B) {
	var mu sync.Mutex
	var counter uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			counter++
			mu.Unlock()
		}
	})
	_ = counter
}

// BenchmarkHostCounterAtomic is the raw hardware fetch-and-add ceiling.
func BenchmarkHostCounterAtomic(b *testing.B) {
	var counter atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			counter.Add(1)
		}
	})
}

// BenchmarkHostTransferSTM measures two-word transactions (disjoint pairs
// drawn per goroutine to expose scalability, not just serialization).
func BenchmarkHostTransferSTM(b *testing.B) {
	const accounts = 64
	m, err := stm.New(accounts)
	if err != nil {
		b.Fatal(err)
	}
	// pairs[a] is the transfer between a and a+7 (mod accounts), prepared
	// over the ascending pair.
	var pairs [accounts]*stm.Tx
	for a := range pairs {
		c := (a + 7) % accounts
		if pairs[a], err = m.Prepare([]int{min(a, c), max(a, c)}); err != nil {
			b.Fatal(err)
		}
	}
	move := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]-1 }
	b.RunParallel(func(pb *testing.PB) {
		var n uint64
		for pb.Next() {
			pairs[n%accounts].RunInto(move, nil)
			n++
		}
	})
}

// BenchmarkHostTransferMutex is the global-lock equivalent of the transfer.
func BenchmarkHostTransferMutex(b *testing.B) {
	const accounts = 64
	balances := make([]uint64, accounts)
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		var n uint64
		for pb.Next() {
			a := int(n % accounts)
			c := int((n + 7) % accounts)
			if a == c {
				c = (c + 1) % accounts
			}
			mu.Lock()
			balances[a]++
			balances[c]--
			mu.Unlock()
			n++
		}
	})
}

// ---------------------------------------------------------------------------
// Uncontended hot-path benchmarks: single-goroutine latency of the pooled
// fast paths, for local profiling. Their allocation counts are asserted in
// alloc_test.go; end-to-end speed is the benchmark of record's.

// BenchmarkUncontendedRunInto measures the zero-allocation prepared
// single-word RunInto.
func BenchmarkUncontendedRunInto(b *testing.B) {
	m, err := stm.New(4)
	if err != nil {
		b.Fatal(err)
	}
	tx, err := m.Prepare([]int{0})
	if err != nil {
		b.Fatal(err)
	}
	var old [1]uint64
	f := func(o, n []uint64) { n[0] = o[0] + 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.RunInto(f, old[:])
	}
}

// BenchmarkUncontendedRunIntoK measures k-word RunInto as the data set
// grows: the cost of transaction size in the host build.
func BenchmarkUncontendedRunIntoK(b *testing.B) {
	for _, k := range []int{2, 4, 8, 32} {
		k := k
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			m, err := stm.New(k)
			if err != nil {
				b.Fatal(err)
			}
			addrs := make([]int, k)
			for i := range addrs {
				addrs[i] = i
			}
			tx, err := m.Prepare(addrs)
			if err != nil {
				b.Fatal(err)
			}
			old := make([]uint64, k)
			f := func(o, n []uint64) {
				for i := range n {
					n[i] = o[i] + 1
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.RunInto(f, old)
			}
		})
	}
}

// BenchmarkDynAtomically measures the dynamic path on a stable two-var
// footprint.
func BenchmarkDynAtomically(b *testing.B) {
	m, err := stm.New(16)
	if err != nil {
		b.Fatal(err)
	}
	a, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		b.Fatal(err)
	}
	c, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		b.Fatal(err)
	}
	rmw := func(tx *stm.DTx) error {
		x := stm.ReadVar(tx, a)
		y := stm.ReadVar(tx, c)
		stm.WriteVar(tx, a, x+1)
		stm.WriteVar(tx, c, y+x)
		return nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Atomically(rmw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynReadSet measures what one speculative read costs as the read
// set grows, and whether a pooled handle's past shows in it: a read-only
// Atomically over n words, on a handle that has only ever run that
// transaction (fresh) and on one that first ran a 16384-word one (grown).
// Both properties are flat lines — ns/read the same at 16 and at 1024
// words (a read is admitted by one epoch compare and logged with one index
// probe, DESIGN.md §9), grown the same as fresh (the handle's reset and
// recycling cost what the operation wrote, not what the handle can hold).
// 16, 24 and 32 words bracket a stmds.Map Get, which logs 22 words or more.
func BenchmarkDynReadSet(b *testing.B) {
	const grownTo = 16384
	for _, eng := range stm.Engines() {
		for _, n := range []int{16, 24, 32, 64, 1024, 8192} {
			for _, handle := range []string{"fresh", "grown"} {
				b.Run(fmt.Sprintf("%v/%d/%s", eng, n, handle), func(b *testing.B) {
					m, err := stm.New(grownTo, stm.WithEngine(eng))
					if err != nil {
						b.Fatal(err)
					}
					reads := n
					readSet := func(tx *stm.DTx) error {
						for a := 0; a < reads; a++ {
							tx.Read(a)
						}
						return nil
					}
					if handle == "grown" {
						reads = grownTo
						if err := m.Atomically(readSet); err != nil {
							b.Fatal(err)
						}
						reads = n
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := m.Atomically(readSet); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/read")
				})
			}
		}
	}
}

// BenchmarkAllocReadAllInto measures the zero-allocation consistent read.
func BenchmarkAllocReadAllInto(b *testing.B) {
	const k = 8
	m, err := stm.New(k)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]int, k)
	for i := range addrs {
		addrs[i] = i
	}
	dst := make([]uint64, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadAllInto(addrs, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostSnapshot measures consistent multi-word reads vs size.
func BenchmarkHostSnapshot(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		k := k
		b.Run(strconv.Itoa(k), func(b *testing.B) {
			m, err := stm.New(k)
			if err != nil {
				b.Fatal(err)
			}
			addrs := make([]int, k)
			for i := range addrs {
				addrs[i] = i
			}
			dst := make([]uint64, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.ReadAllInto(addrs, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
