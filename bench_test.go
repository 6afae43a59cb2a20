package stm_test

// Host-mode benchmarks (T2): the real-goroutine library measured against
// conventional synchronization on the machine running the tests. The
// paper's simulated figures are produced by cmd/stmbench (DESIGN.md §5).

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	stm "github.com/stm-go/stm"
)

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

// BenchmarkDynReadMostlyCommit measures a writing dynamic transaction that
// mostly reads: n scattered words read, one other word written, at a
// footprint that moves every call — the shape of a pipelined server batch,
// which reads a map's words by the thousand to change a few. The commit
// hands the engine only the word it writes; the n it read are validated
// beside it as a read list (DESIGN.md §9), so what the commit costs beyond
// the reads themselves should not grow with n.
func BenchmarkDynReadMostlyCommit(b *testing.B) {
	const words, stride = 1 << 14, 613 // odd stride: n+1 distinct words
	for _, eng := range stm.Engines() {
		for _, n := range []int{16, 64, 1024} {
			b.Run(fmt.Sprintf("%v/%d", eng, n), func(b *testing.B) {
				m, err := stm.New(words, stm.WithEngine(eng))
				if err != nil {
					b.Fatal(err)
				}
				base := 0
				readMostly := func(tx *stm.DTx) error {
					var sum uint64
					for j := 0; j < n; j++ {
						sum += tx.Read((base + j*stride) % words)
					}
					tx.Write((base+n*stride)%words, sum+1)
					return nil
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					base = (base + 7919) % words
					if err := m.Atomically(readMostly); err != nil {
						b.Fatal(err)
					}
				}
			})
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

// BenchmarkHostSnapshot measures consistent multi-word reads vs size, on
// each engine: one reader, and at 8 and 32 words a par row where
// RunParallel's readers (two under -cpu 2) read the same words at once.
func BenchmarkHostSnapshot(b *testing.B) {
	for _, eng := range stm.Engines() {
		for _, k := range []int{2, 8, 32} {
			m, err := stm.New(k, stm.WithEngine(eng))
			if err != nil {
				b.Fatal(err)
			}
			addrs := make([]int, k)
			for i := range addrs {
				addrs[i] = i
			}
			b.Run(fmt.Sprintf("%v/%d", eng, k), func(b *testing.B) {
				dst := make([]uint64, k)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := m.ReadAllInto(addrs, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			if k == 2 {
				continue
			}
			b.Run(fmt.Sprintf("%v/%d/par", eng, k), func(b *testing.B) {
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					dst := make([]uint64, k)
					for pb.Next() {
						if err := m.ReadAllInto(addrs, dst); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}
