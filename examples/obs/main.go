// Obs: observing a Memory with the stmobs seam.
//
// Runs the same contended counter workload on both engines with full
// observability enabled — counters, histograms, and a flight recorder
// registered as the observer — then dumps what each surface sees: the
// abort taxonomy, the size histograms of every attempt and the nanosecond
// latency histograms of the 1-in-SampleEvery sampled attempts
// (DebugString), the expvar JSON a /debug/vars scraper would read, and the
// flight recorder's ring, which holds the recent aborts and the same
// sampled commits.
//
// It exits non-zero unless the counter words sum to two increments per
// transaction, Stats counts one commit per transaction, and the ring holds
// at least one sampled commit.
//
// Run with: go run ./examples/obs
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
)

const (
	words   = 64
	workers = 8
	txs     = 20_000 // transactions per worker
)

// run drives the workload on one engine and reports whether its three
// invariants held.
func run(engine stm.Engine) bool {
	flight := stmobs.NewFlightRecorder(32)
	m, err := stm.New(words,
		stm.WithEngine(engine),
		stm.WithObs(stm.ObsConfig{
			Level:       stm.ObsHistograms,
			Observer:    flight,
			SampleEvery: 16,
		}))
	if err != nil {
		log.Fatal(err)
	}
	stmobs.Publish("stm_"+engine.String(), m)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go stmobs.Do(context.Background(), m, "obs-worker", func(context.Context) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < txs; i++ {
				// Two random words, incremented together: enough overlap
				// on 64 words to exercise the abort paths.
				a, b := rng.Intn(words), rng.Intn(words)
				for b == a {
					b = rng.Intn(words)
				}
				if a > b {
					a, b = b, a
				}
				tx, err := m.Prepare([]int{a, b})
				if err != nil {
					log.Fatal(err)
				}
				tx.RunInto(func(old, new []uint64) {
					new[0], new[1] = old[0]+1, old[1]+1
				}, nil)
			}
		})
	}
	wg.Wait()

	fmt.Printf("==== engine %s ====\n\n", engine)
	fmt.Println(m.DebugString())

	// What a /debug/vars scraper would see for this Memory.
	raw, err := json.MarshalIndent(stmobs.StatsMap(m), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expvar %q:\n%s\n\n", "stm_"+engine.String(), raw)

	if err := flight.Dump(os.Stdout, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	commits := m.Stats().Commits
	all := make([]int, words)
	for i := range all {
		all[i] = i
	}
	vals := make([]uint64, words)
	if err := m.ReadAllInto(all, vals); err != nil {
		log.Fatal(err)
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	sampled := 0
	for _, e := range flight.Snapshot() {
		if e.Kind == stmobs.FlightStmCommit {
			sampled++
		}
	}
	ok := true
	if want := uint64(2 * workers * txs); sum != want {
		fmt.Printf("%s: counter words sum to %d, want %d\n", engine, sum, want)
		ok = false
	}
	if want := uint64(workers * txs); commits != want {
		fmt.Printf("%s: Stats().Commits = %d, want %d\n", engine, commits, want)
		ok = false
	}
	if sampled == 0 {
		fmt.Printf("%s: the flight recorder holds no sampled commit\n", engine)
		ok = false
	}
	return ok
}

func main() {
	ok := true
	for _, engine := range stm.Engines() {
		ok = run(engine) && ok
	}
	// The Memories stay registered with expvar; a server would expose them
	// at /debug/vars. Show they are really there.
	names := 0
	expvar.Do(func(kv expvar.KeyValue) {
		if len(kv.Key) > 4 && kv.Key[:4] == "stm_" {
			names++
		}
	})
	fmt.Printf("expvar registry now serves %d stm memories at /debug/vars\n", names)
	if !ok {
		os.Exit(1)
	}
}
