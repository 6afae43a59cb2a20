// The sanity scenario: a bank that is DELIBERATELY broken — the debit and
// the credit commit in two separate transactions with a stall between
// them, so the conserved total visibly flickers. Its job is to fail: the
// suite requires the harness to catch and report the violation (with the
// replay seed). A harness whose auditors cannot see this break would pass
// the real scenarios vacuously.

package simulation

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
	"github.com/stm-go/stm/stmobs"
)

const (
	sanityAccounts = 16
	sanityInitial  = int64(1_000)
)

// Flight-event kinds the sanity scenario records in its run's ring, one per
// committed half of a transfer: Conn is the worker, A the account, B the
// amount. They are what the violation dump shows the money doing.
const (
	sanityDebit uint16 = iota + 1
	sanityCredit
)

type sanityScenario struct{}

// Sanity returns the deliberately broken scenario.
func Sanity() Scenario { return sanityScenario{} }

func (sanityScenario) Name() string { return "sanity" }

// describeFlight renders the sanity kinds; the engine's fall through to
// the stmobs default.
func (sanityScenario) describeFlight(e stmobs.FlightEvent) string {
	switch e.Kind {
	case sanityDebit:
		return fmt.Sprintf("t=%v debit worker=%d account=%d amount=%d", e.At, e.Conn, e.A, e.B)
	case sanityCredit:
		return fmt.Sprintf("t=%v credit worker=%d account=%d amount=%d", e.At, e.Conn, e.A, e.B)
	}
	return e.String()
}

func (sanityScenario) Run(env *Env) error {
	m, err := env.NewMemory(1 << 14)
	if err != nil {
		return err
	}
	mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), sanityAccounts)
	if err != nil {
		return err
	}
	for k := int64(0); k < sanityAccounts; k++ {
		if _, _, err := mp.Put(k, sanityInitial); err != nil {
			return err
		}
	}
	const total = sanityAccounts * sanityInitial

	// debits counts the debits recorded in the flight ring. A debit breaks
	// the sum the moment it commits, before its worker records it, so an
	// auditor that sees the break waits for a record before it reports:
	// the violation's dump then shows the money leaving.
	var debits atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < env.Workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := env.Stream(uint64(w))
			for !env.Stopped() {
				from := int64(rng.Intn(sanityAccounts))
				to := int64(rng.Intn(sanityAccounts))
				want := int64(rng.Intn(100) + 1)
				if from == to {
					continue
				}
				var amt int64
				// THE BUG: two transactions where the bank scenario uses
				// one. Between them the money is nowhere.
				err := m.Atomically(func(tx *stm.DTx) error {
					va, _ := mp.GetTx(tx, from)
					amt = want
					if amt > va {
						amt = va
					}
					if amt == 0 {
						return nil
					}
					_, _, err := mp.PutTx(tx, from, va-amt)
					return err
				})
				if err == nil && amt > 0 {
					env.Flight().Record(sanityDebit, uint64(w), uint64(from), uint64(amt))
					debits.Add(1)
					time.Sleep(200 * time.Microsecond) // widen the window
					err = m.Atomically(func(tx *stm.DTx) error {
						vb, _ := mp.GetTx(tx, to)
						_, _, err := mp.PutTx(tx, to, vb+amt)
						return err
					})
					if err == nil {
						env.Flight().Record(sanityCredit, uint64(w), uint64(to), uint64(amt))
					}
				}
				if err != nil {
					return
				}
				env.Op()
			}
		}(w)
	}

	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for !env.Stopped() {
				var sum int64
				err := m.Atomically(func(tx *stm.DTx) error {
					sum = 0
					mp.RangeTx(tx, func(k, v int64) bool {
						sum += v
						return true
					})
					return nil
				})
				if err != nil {
					return
				}
				if sum != total {
					// Expected! This is the violation the suite demands.
					for deadline := time.Now().Add(time.Second); debits.Load() == 0 && time.Now().Before(deadline); {
						runtime.Gosched()
					}
					env.Violatef("sanity: conservation broken as designed: sum %d, want %d", sum, total)
					return
				}
				env.Checked()
			}
		}(a)
	}

	wg.Wait()
	return nil
}
