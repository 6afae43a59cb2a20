// Obs: observing a Memory with the stmobs seam.
//
// Runs the same contended counter workload on both engines with full
// observability enabled — counters, histograms, and sampled traces into a
// ring — then dumps what each surface sees: the abort taxonomy, the size
// histograms of every attempt and the nanosecond latency histograms of the
// 1-in-SampleEvery sampled attempts (DebugString), the expvar JSON a
// /debug/vars scraper would read, and the last few traces, which are the
// same sampled attempts.
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
	"sync"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
)

const (
	words   = 64
	workers = 8
	txs     = 20_000 // transactions per worker
)

func run(engine stm.Engine) {
	tracer := stmobs.NewRingTracer(4)
	m, err := stm.New(words,
		stm.WithEngine(engine),
		stm.WithObs(stm.ObsConfig{
			Level:       stm.ObsTrace,
			Observer:    tracer,
			SampleEvery: 1024,
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

	traces := tracer.Traces()
	fmt.Printf("sampled traces retained: %d of %d delivered\n", len(traces), tracer.Total())
	for _, tr := range traces {
		fmt.Printf("  seq=%d writes=%d committed=%v reason=%d addrs=%v took=%v\n",
			tr.Seq, tr.Writes, tr.Committed, tr.Reason, tr.Addrs, tr.Elapsed)
	}
	fmt.Println()
}

func main() {
	for _, engine := range stm.Engines() {
		run(engine)
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
}
