// Package simulation is the whole-system scenario and chaos harness: it
// composes the repository's layers — engines, the
// dynamic transaction layer, stmds structures, and the stmserve network
// server — into multi-component systems, runs them for a configured
// duration under seeded fault injection, and continuously checks the
// invariants (conservation sums, snapshot consistency, queue-flow
// balance) that atomicity is supposed to guarantee.
//
// The unit tests in this repository each pin one layer; this package
// answers the question they cannot: does the whole stack hold its
// guarantees while goroutines are parked mid-commit, preemption storms
// scramble the schedule, hash maps resize under snapshot readers, and
// TCP connections die mid-pipeline? A scenario that survives here
// survives because the Shavit–Touitou non-blocking argument (and TL2's
// lock-ordered commit) actually compose, not because the test got lucky.
//
// # Scenarios
//
//   - bank: concurrent transfers over an stmds.Map of accounts with
//     RangeTx audits asserting the conserved total, plus ephemeral-key
//     churn keeping incremental resizes in flight under the auditors.
//   - orders: an order book — an stmds.PQ of order IDs by price beside an
//     stmds.Map of open quantities, placed and matched atomically;
//     auditors assert placed == matched + open in one transaction.
//   - mesh: a producer/consumer pipeline over three stmds.Queues whose
//     movers are OrElse monitors; auditors assert the in/out counters
//     balance the queued backlog, and teardown drains and balances the
//     value sums exactly.
//   - serve: a real stmserve TCP server driven over loopback with MULTI
//     transfer groups, MULTI snapshot audits, a queue flow, and a loader
//     whose pipelined fresh-key SETs resize the keyspace three times —
//     while a seeded killer closes client connections mid-pipeline. No
//     loader SET may be refused, and every loaded key must read back.
//   - sanity: a deliberately broken bank (debit and credit in separate
//     transactions). The suite REQUIRES the harness to catch it; a run
//     in which the sanity violation goes unreported fails.
//
// # Faults
//
// Faults come from the engine chaos seam (stm.SetChaos, DESIGN.md §14):
// a seeded Parker sleeps attempt goroutines at the protocol's most
// delicate phases — data set owned but nothing installed (ST), commit
// locks held with the clock stepped but no word written back (TL2), and
// mid-helping — plus scheduler preemption storms, forced map churn, and
// connection kills. Every fault decision and workload draw comes from one
// base seed, which a failing run prints. Running again with -seed (or
// STM_SIM_SEED) reproduces those decisions and draws, not the Go schedule:
// which attempt reaches a chaos point first, and so which one a decision
// lands on, is the runtime's choice. A failure that depends on the
// schedule may need several runs of the same seed.
//
// # Running
//
//	go run ./cmd/stmsim -suite smoke            # CI tier, ~30s
//	go run ./cmd/stmsim -suite canary -duration 10m
//	go run ./cmd/stmsim -suite smoke -seed 12345
//
// See simulation/README.md for how to add a scenario.
package simulation
