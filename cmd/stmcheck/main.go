// Command stmcheck tortures the host (goroutine) STM build and verifies
// its correctness invariants under real concurrency, on every engine:
//
//   - exact counting: N goroutines × K increments must land exactly;
//   - conservation: random multi-word transfers preserve the total;
//   - snapshot consistency: every committed read-all observes the invariant;
//   - linearizability: recorded histories of register operations are
//     checked against a sequential specification (internal/lin).
//
// It exits non-zero on the first violation. Use -seconds to run longer.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/lin"
	"github.com/stm-go/stm/internal/xrand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stmcheck: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("stmcheck: all checks passed")
}

func run(args []string) error {
	fs := flag.NewFlagSet("stmcheck", flag.ContinueOnError)
	var (
		seconds    = fs.Float64("seconds", 2, "wall-clock budget per check")
		goroutines = fs.Int("goroutines", 2*runtime.GOMAXPROCS(0), "concurrent workers")
		words      = fs.Int("words", 32, "memory size for the transfer check")
		seed       = fs.Uint64("seed", 1, "seed for workload randomness")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	checks := []struct {
		name string
		fn   func(stm.Engine, time.Duration, int, int, uint64) error
	}{
		{"exact-counting", checkCounting},
		{"conservation+snapshots", checkConservation},
		{"linearizability", checkLinearizable},
	}
	budget := time.Duration(*seconds * float64(time.Second))
	for _, c := range checks {
		for _, eng := range stm.Engines() {
			start := time.Now()
			if err := c.fn(eng, budget, *goroutines, *words, *seed); err != nil {
				return fmt.Errorf("%s on %v: %w", c.name, eng, err)
			}
			fmt.Printf("ok  %-24s %-4v %v\n", c.name, eng, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// checkCounting hammers one word with increments and demands exactness.
func checkCounting(eng stm.Engine, budget time.Duration, goroutines, _ int, _ uint64) error {
	m, err := stm.New(1, stm.WithEngine(eng))
	if err != nil {
		return err
	}
	tx, err := m.Prepare([]int{0})
	if err != nil {
		return err
	}
	inc := func(old, new []uint64) { new[0] = old[0] + 1 }
	deadline := time.Now().Add(budget)
	var total atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine uint64
			for time.Now().Before(deadline) {
				for i := 0; i < 100; i++ {
					tx.RunInto(inc, nil)
					mine++
				}
			}
			total.Add(mine)
		}()
	}
	wg.Wait()
	if got := m.Peek(0); got != total.Load() {
		return fmt.Errorf("counter = %d, recorded %d increments", got, total.Load())
	}
	return nil
}

// checkConservation runs random guarded transfers while auditors take
// transactional snapshots; totals must never move.
func checkConservation(eng stm.Engine, budget time.Duration, goroutines, words int, seed uint64) error {
	const initial = 1 << 20
	m, err := stm.New(words, stm.WithEngine(eng))
	if err != nil {
		return err
	}
	addrs := make([]int, words)
	vals := make([]uint64, words)
	for i := range addrs {
		addrs[i] = i
		vals[i] = initial
	}
	if err := m.WriteAll(addrs, vals); err != nil {
		return err
	}
	want := uint64(words) * initial

	deadline := time.Now().Add(budget)
	errCh := make(chan error, goroutines+1)
	var wg sync.WaitGroup

	// Auditor: transactional snapshots must always conserve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		snap := make([]uint64, words)
		for time.Now().Before(deadline) {
			if err := m.ReadAllInto(addrs, snap); err != nil {
				errCh <- err
				return
			}
			var sum uint64
			for _, v := range snap {
				sum += v
			}
			if sum != want {
				errCh <- fmt.Errorf("snapshot total = %d, want %d", sum, want)
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(seed ^ uint64(g+1)*0x9e3779b97f4a7c15)
			for time.Now().Before(deadline) {
				a, b := rng.Intn(words), rng.Intn(words)
				if a == b {
					continue
				}
				amt := rng.Uint64() % 64
				// Move amt from a to b over the ascending data set {a, b}:
				// from and to index the pair in that order.
				from, to := 0, 1
				if a > b {
					a, b = b, a
					from, to = 1, 0
				}
				tx, err := m.Prepare([]int{a, b})
				if err != nil {
					errCh <- err
					return
				}
				tx.RunInto(func(old, new []uint64) {
					x := min(amt, old[from])
					new[from], new[to] = old[from]-x, old[to]+x
				}, nil)
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	var sum uint64
	for i := 0; i < words; i++ {
		sum += m.Peek(i)
	}
	if sum != want {
		return fmt.Errorf("final total = %d, want %d", sum, want)
	}
	return nil
}

// checkLinearizable records a concurrent history of register swaps/reads
// over a small word set and verifies it against the sequential register
// specification.
func checkLinearizable(eng stm.Engine, budget time.Duration, goroutines, _ int, seed uint64) error {
	// Small bounded runs repeated until the budget is spent: the checker is
	// exponential in history length, so many short histories beat one long
	// one, and short histories still catch ordering violations.
	deadline := time.Now().Add(budget)
	round := 0
	for time.Now().Before(deadline) {
		round++
		if err := linRound(eng, goroutines, seed+uint64(round)); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	return nil
}

func linRound(eng stm.Engine, goroutines int, seed uint64) error {
	if goroutines > 4 {
		goroutines = 4 // keep the exhaustive search tractable
	}
	const opsPer = 5
	m, err := stm.New(1, stm.WithEngine(eng))
	if err != nil {
		return err
	}
	tx, err := m.Prepare([]int{0})
	if err != nil {
		return err
	}
	rec := lin.NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(seed ^ uint64(g+1)*0xbf58476d1ce4e5b9)
			for i := 0; i < opsPer; i++ {
				v := rng.Uint64()%100 + 1
				call := rec.Begin(g, lin.Op{Kind: lin.OpSwap, Arg: v})
				var old [1]uint64
				tx.RunInto(func(_, new []uint64) { new[0] = v }, old[:])
				rec.End(call, old[0])
			}
		}(g)
	}
	wg.Wait()
	h := rec.History()
	if !lin.CheckRegister(h, 0) {
		return errors.New("history is not linearizable as a register")
	}
	return nil
}
