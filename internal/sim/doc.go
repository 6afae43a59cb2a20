// Package sim is the paper's evaluation machine and the three protocols it
// measures: a deterministic discrete-event multiprocessor simulator (the
// stand-in for the Proteus simulator on which Shavit & Touitou, PODC 1995,
// ran their evaluation; see DESIGN.md §5), the paper-faithful STM,
// Herlihy's non-blocking method, and the TTAS and MCS locks.
//
// # The machine
//
// A Machine simulates P processors sharing a flat memory of 64-bit words.
// Each processor runs an arbitrary Go function (its Program) in its own
// goroutine, but the machine schedules processors one at a time in virtual
// time: every shared-memory operation hands control to the scheduler, which
// releases the globally earliest processor next. Memory effects therefore
// occur in a single global order — sequential consistency — while an
// architecture CostModel charges each operation cycles (cache hits, bus
// arbitration, network latency, queueing at memory modules) and thereby
// shapes the interleaving exactly the way contention does on the modelled
// hardware.
//
// The machine provides the primitives the paper's protocol is written
// against: Read, Write, LL (load-linked), SC (store-conditional, which
// fails iff the word was written since the matching LL), and CAS. Think
// advances a processor's clock without touching memory (local
// computation); a StallPlan suspends a processor's clock for long stretches
// while its peers keep running — the preemption scenario non-blocking
// protocols exist for.
//
// Determinism: all scheduling randomness derives from Config.Seed, and ties
// in virtual time break by processor id, so a run is a pure function of
// (programs, config).
//
// # The protocols
//
// Every protocol lives entirely in simulated shared memory, so each of its
// steps pays the modelled hardware cost, and each retries a failed attempt
// after capped exponential backoff with jitter.
//
// STM is Shavit–Touitou software transactional memory with the paper's own
// memory discipline (the host build, internal/core, leans on Go's garbage
// collector instead): transaction records are owned by one processor each
// and reused across attempts, stamped with a version number that helpers
// validate before every store-conditional; ownership words pack (record,
// version) so a conflicting processor can tell a live claim (help it) from
// a stale one (free it). The phases — ordered acquisition, one-shot status
// decision, set-once old-value agreement, guarded update, release and
// non-redundant helping — mirror internal/core; see DESIGN.md §4. The
// Variant switches (no helping, unsorted acquisition) exist for the
// ablation experiment F6.
//
// Herlihy is Herlihy's general method for non-blocking objects, the paper's
// non-blocking baseline: an operation load-links a root pointer, copies the
// whole object into a private block, updates the copy and swings the root
// with a store-conditional. The whole-object copy is why it degrades as
// objects grow, the contrast the queue figures draw.
//
// TTAS and MCS are the blocking baselines: TTAS spins in its cache and
// storms the bus on release; MCS spins on a processor-private word and
// hands the lock on with one remote write, so it stays flat as processors
// are added.
package sim
