// Package contention decides how a transaction on an stm.Memory reacts to
// contention.
//
// Shavit–Touitou's cooperative protocol guarantees non-blocking progress —
// a blocked transaction helps its blocker to completion instead of waiting
// on it — but says nothing about throughput under contention: how long a
// failed transaction should defer its retry. That decision is a Policy,
// one per Memory. The package ships one, ExpBackoff (capped exponential
// backoff with jitter, the default), which is also how the paper's
// evaluation retries after helping. stm.WithPolicy installs another
// implementation of the interface, for instance one that watches or steers
// conflicts in a test.
//
// A policy instance governs one Memory and its hooks are invoked
// concurrently from every goroutine running transactions, so
// implementations must be safe for concurrent use. State private to one
// operation (one logical transaction, across all its retries) travels in
// the Conflict report the hooks receive.
package contention

import "github.com/stm-go/stm/internal/backoff"

// Conflict is the per-operation report threaded through a Policy's hooks.
// One Conflict accompanies one logical operation — a transaction retried
// until commit, or a single Try attempt — from its first conflict on, and
// is reused across that operation's attempts, so policies can accumulate
// per-operation state in it. The stm layer recycles Conflict values between
// operations; policies must not retain them after OnCommit or OnAbort
// returns.
type Conflict struct {
	// Addr is the word the most recent failed attempt died at — whose
	// ownership acquisition failed, or that a dynamic transaction read and
	// found stale.
	Addr int
	// Attempts counts this operation's failed attempts so far: ≥ 1 in
	// every hook.
	Attempts int
	// State is policy-private per-operation scratch. It starts nil for
	// every operation and is discarded (not reset by the policy) when the
	// operation ends.
	State any
}

// Policy decides how transactions on one Memory react to contention. All
// hooks are called concurrently from many goroutines and receive the
// operation's Conflict report; per-operation state belongs in the report,
// per-Memory state in the policy (guarded or atomic). An operation that
// never conflicts never reaches the policy.
type Policy interface {
	// OnConflict is called after a failed attempt, before the retry. The
	// blocking transaction has already been helped to completion; the
	// policy's job is only to decide how long to defer the retry, blocking
	// for that duration.
	OnConflict(c *Conflict)
	// OnCommit is called once when an operation that conflicted commits,
	// including a transaction that only read. Policies release
	// per-operation resources here.
	OnCommit(c *Conflict)
	// OnAbort is called once when an operation that conflicted is
	// abandoned without committing: a single-attempt Try that failed, or
	// a retry loop cancelled by its context. Like OnCommit it must release
	// any per-operation resources; it must not block.
	OnAbort(c *Conflict)
}

// Default returns the policy a Memory uses when none is configured:
// exponential backoff from backoff.Min (500ns) to backoff.Max (100µs).
func Default() Policy { return &ExpBackoff{} }

// ExpBackoff defers retries by capped exponential backoff with per-operation
// decorrelated jitter. Each conflicted operation lazily creates its own
// backoff.Exp (seeded through backoff.NewSeeded, so concurrent operations
// never share a jitter stream) and doubles its wait on every further
// conflict.
type ExpBackoff struct{}

// OnConflict waits the operation's current backoff interval and doubles it.
func (*ExpBackoff) OnConflict(c *Conflict) {
	bo, ok := c.State.(*backoff.Exp)
	if !ok {
		bo = backoff.NewSeeded()
		c.State = bo
	}
	bo.Wait()
}

// OnCommit is a no-op: the operation's backoff state is discarded with its
// Conflict report.
func (*ExpBackoff) OnCommit(*Conflict) {}

// OnAbort is a no-op.
func (*ExpBackoff) OnAbort(*Conflict) {}
