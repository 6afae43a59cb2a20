// Typed variables: Var[T] over int64, struct and string codecs, composed
// in Atomically transactions.
//
// A small payment ledger built from typed transactional variables — int64
// balances, a multi-word struct for audit state, a fixed-width string for
// the last-actor label — mutated by transactions that read and write them
// through ReadVar/WriteVar. No word addresses, no uint64 juggling;
// conservation of money is checked live by a concurrent auditor.
//
// Run with: go run ./examples/typed
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	stm "github.com/stm-go/stm"
)

// audit is the ledger's struct-typed state: one Var[audit] spans two
// engine words via its codec below.
type audit struct {
	Transfers int64
	Volume    int64
}

type auditCodec struct{}

func (auditCodec) Words() int { return 2 }
func (auditCodec) Encode(a audit, dst []uint64) {
	dst[0], dst[1] = uint64(a.Transfers), uint64(a.Volume)
}
func (auditCodec) Decode(src []uint64) audit {
	return audit{Transfers: int64(src[0]), Volume: int64(src[1])}
}

const (
	accounts = 8
	initial  = 1_000
	workers  = 4
	perW     = 2_000
)

func main() {
	m, err := stm.New(64)
	if err != nil {
		log.Fatal(err)
	}

	// Declare the ledger: typed variables allocated from the Memory.
	balances := make([]*stm.Var[int64], accounts)
	for i := range balances {
		if balances[i], err = stm.Alloc(m, stm.Int64()); err != nil {
			log.Fatal(err)
		}
		balances[i].Store(initial)
	}
	auditVar, err := stm.Alloc(m, auditCodec{})
	if err != nil {
		log.Fatal(err)
	}
	lastActor, err := stm.Alloc(m, stm.String(16))
	if err != nil {
		log.Fatal(err)
	}

	// Workers transfer money: each transfer reads and writes two balances,
	// the audit struct and the actor label in one transaction.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			who := fmt.Sprintf("worker-%d", w)
			for i := 0; i < perW; i++ {
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				if a == b {
					continue
				}
				amt := int64(rng.Intn(50) + 1)
				if err := m.Atomically(func(tx *stm.DTx) error {
					stm.WriteVar(tx, balances[a], stm.ReadVar(tx, balances[a])-amt)
					stm.WriteVar(tx, balances[b], stm.ReadVar(tx, balances[b])+amt)
					st := stm.ReadVar(tx, auditVar)
					stm.WriteVar(tx, auditVar, audit{st.Transfers + 1, st.Volume + amt})
					stm.WriteVar(tx, lastActor, who)
					return nil
				}); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}

	// The auditor reads every variable in one transaction, so the
	// invariant holds at every linearization point it observes. It writes
	// nothing, so it commits without an engine attempt.
	stop := make(chan struct{})
	audited := make(chan int, 1)
	go func() {
		var sum int64
		var st audit
		snapshot := func(tx *stm.DTx) error {
			sum = 0
			for _, v := range balances {
				sum += stm.ReadVar(tx, v)
			}
			st = stm.ReadVar(tx, auditVar)
			return nil
		}
		checks := 0
		for {
			select {
			case <-stop:
				audited <- checks
				return
			default:
			}
			if err := m.Atomically(snapshot); err != nil {
				log.Fatal(err)
			}
			if sum != accounts*initial {
				log.Fatalf("audit #%d: total %d, want %d (after %d transfers)",
					checks, sum, accounts*initial, st.Transfers)
			}
			checks++
		}
	}()

	wg.Wait()
	close(stop)
	checks := <-audited

	st := auditVar.Load()
	fmt.Printf("accounts conserve %d across %d transfers (volume %d)\n",
		accounts*initial, st.Transfers, st.Volume)
	fmt.Printf("%d consistent audits passed; last actor: %q\n", checks, lastActor.Load())

	ps := m.Stats()
	fmt.Printf("protocol stats: %d attempts, %d commits, %d read-only commits, %d failures, %d helps\n",
		ps.Attempts, ps.Commits, ps.ReadOnlyCommits, ps.Failures, ps.Helps)
}
