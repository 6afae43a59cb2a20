// Bank: concurrent transfers with a live auditor.
//
// The motivating scenario for multi-word atomicity: move money between
// accounts under heavy concurrency while an auditor continuously takes
// transactional snapshots. Every snapshot must conserve the bank's total —
// with plain atomics or per-account locks it would not.
//
// Run with: go run ./examples/bank
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	stm "github.com/stm-go/stm"
)

const (
	accounts = 32
	initial  = 1_000
	workers  = 8
	transfer = 5_000 // transfers per worker
)

var errNoFunds = errors.New("insufficient funds")

func main() {
	m, err := stm.New(accounts)
	if err != nil {
		log.Fatal(err)
	}
	bank := make([]*stm.Var[int64], accounts)
	for i := range bank {
		if bank[i], err = stm.Alloc(m, stm.Int64()); err != nil {
			log.Fatal(err)
		}
		bank[i].Store(initial)
	}
	const want = accounts * initial

	// move transfers amt from src to dst in one transaction, or nothing at
	// all if src is short at the transaction's linearization point.
	move := func(src, dst int, amt int64) error {
		return m.Atomically(func(tx *stm.DTx) error {
			from := stm.ReadVar(tx, bank[src])
			if from < amt {
				return errNoFunds
			}
			stm.WriteVar(tx, bank[src], from-amt)
			stm.WriteVar(tx, bank[dst], stm.ReadVar(tx, bank[dst])+amt)
			return nil
		})
	}
	// audit reads every balance in one transaction: all of them coexisted
	// at a single instant.
	audit := func(balances []int64) (total int64) {
		if err := m.Atomically(func(tx *stm.DTx) error {
			total = 0
			for i, acct := range bank {
				balances[i] = stm.ReadVar(tx, acct)
				total += balances[i]
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		return total
	}

	var (
		wg       sync.WaitGroup
		audits   atomic.Int64
		rejected atomic.Int64
		stop     = make(chan struct{})
	)

	// Auditor: hammer consistent snapshots while transfers fly.
	auditorDone := make(chan error, 1)
	go func() {
		balances := make([]int64, accounts)
		for {
			select {
			case <-stop:
				auditorDone <- nil
				return
			default:
			}
			if total := audit(balances); total != want {
				auditorDone <- fmt.Errorf("audit saw %d, want %d", total, want)
				return
			}
			audits.Add(1)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < transfer; i++ {
				src, dst := rng.Intn(accounts), rng.Intn(accounts)
				switch err := move(src, dst, int64(rng.Intn(200))); {
				case errors.Is(err, errNoFunds):
					rejected.Add(1) // rejected atomically: nothing moved
				case err != nil:
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-auditorDone; err != nil {
		log.Fatal(err)
	}

	balances := make([]int64, accounts)
	total := audit(balances)
	lo, hi := balances[0], balances[0]
	for _, b := range balances {
		lo, hi = min(lo, b), max(hi, b)
	}
	fmt.Printf("%d workers × %d transfers done\n", workers, transfer)
	fmt.Printf("rejected (insufficient funds): %d\n", rejected.Load())
	fmt.Printf("audits that all conserved:     %d\n", audits.Load())
	fmt.Printf("final total: %d (want %d) — balances range [%d, %d]\n", total, want, lo, hi)
	st := m.Stats()
	fmt.Printf("protocol: %d commits, %d read-only commits, %d conflicts helped through\n",
		st.Commits, st.ReadOnlyCommits, st.Helps)
	if total != want {
		log.Fatal("CONSERVATION VIOLATED")
	}
}
