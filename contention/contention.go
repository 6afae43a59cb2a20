// Package contention provides pluggable contention-management policies for
// the stm package.
//
// Shavit–Touitou's cooperative protocol guarantees non-blocking progress —
// a blocked transaction helps its blocker to completion instead of waiting
// on it — but says nothing about throughput under contention: how long a
// failed transaction should defer its retry, and whether hot data should be
// accessed less greedily. Those decisions dominate measured performance
// across workloads, and no single answer wins everywhere, so this package
// makes them a policy the caller chooses per Memory (stm.WithPolicy) and
// provides four implementations spanning the design space:
//
//   - Aggressive: retry immediately. Pure helping, the paper's baseline.
//   - ExpBackoff: capped exponential backoff with jitter (the default).
//   - Karma: priority accumulated per retried attempt; long-suffering
//     transactions retry promptly, fresh ones defer to them.
//   - Adaptive: exponential backoff that falls back to a per-conflict-domain
//     serialization token when the windowed abort rate crosses a threshold.
//
// A policy instance governs one Memory and its hooks are invoked
// concurrently from every goroutine running transactions, so
// implementations must be safe for concurrent use. State private to one
// operation (one logical transaction, across all its retries) travels in
// the Conflict report the hooks receive.
package contention

// Owner is a racy snapshot of the transaction record observed blocking an
// attempt. It is advisory: by the time the conflicted transaction inspects
// it, the blocker may have completed (helped, perhaps, by this very
// transaction) or moved on to a later attempt.
type Owner struct {
	// Present reports whether a blocking record was still installed when
	// the failed attempt was inspected. When false the remaining fields
	// are zero.
	Present bool
	// Version is the blocker's attempt identity (diagnostic).
	Version uint64
	// Priority is the priority the blocker's policy had installed via
	// Conflict.Priority, or 0 if its policy does not use priorities.
	Priority uint64
}

// Conflict is the per-operation report threaded through a Policy's hooks.
// One Conflict accompanies one logical operation — a transaction retried
// until commit, or a single Try attempt — and is reused across that
// operation's attempts, so policies can accumulate per-operation state in
// it. The stm layer recycles Conflict values between operations; policies
// must not retain them after OnCommit or OnAbort returns.
type Conflict struct {
	// Addr is the word the most recent failed attempt died at — whose
	// ownership acquisition failed, or that a dynamic transaction read and
	// found stale — or -1 when there was no conflict (OnCommit after a
	// clean first attempt).
	Addr int
	// Owner describes the record observed blocking that attempt.
	Owner Owner
	// Attempts counts this operation's failed attempts so far: ≥ 1 inside
	// OnConflict and OnAbort, ≥ 0 inside OnCommit.
	Attempts int
	// First is the lowest address the operation owns — the conflict-domain
	// key. For a static operation that is its data set's lowest address;
	// a dynamic transaction's commit owns only the words it writes, so it
	// reports the lowest of those (two map updates of different keys are
	// different domains, though both read the map's header words). It is
	// an approximation: operations with the same First always share a
	// domain, but overlapping data sets with different lowest addresses
	// (say {0,5} and {5,9}) land in different domains, so a policy that
	// serializes per domain dampens their mutual conflicts without
	// eliminating them. The approximation is what lets the key be computed
	// for next to nothing on every operation; policies remain correct
	// regardless, because they only shape timing. A dynamic transaction
	// that never reaches the engine — it wrote nothing, or a read went
	// stale first — reports the first address it touched, and -1 (with
	// Size 0) if it touched none.
	First int
	// Size is the data-set size in words — a proxy for the work a failed
	// attempt wasted. For a dynamic transaction it is the whole footprint,
	// the words it read as well as the ones it wrote, though its commit
	// owns only the latter.
	Size int
	// Priority is the priority the policy assigns to this operation. The
	// stm layer installs it on the next attempt's record, where competing
	// transactions observe it through Conflict.Owner.Priority. Policies
	// that do not rank transactions leave it 0.
	Priority uint64
	// State is policy-private per-operation scratch. It starts nil for
	// every operation and is discarded (not reset by the policy) when the
	// operation ends.
	State any
}

// Policy decides how transactions on one Memory react to contention. All
// hooks are called concurrently from many goroutines and receive the
// operation's Conflict report; per-operation state belongs in the report,
// per-Memory state in the policy (guarded or atomic).
type Policy interface {
	// OnConflict is called after a failed attempt, before the retry. The
	// blocking transaction has already been helped to completion; the
	// policy's job is only to decide how long to defer the retry, blocking
	// for that duration.
	OnConflict(c *Conflict)
	// OnCommit is called once when the operation commits, including a
	// transaction that only read. Policies release per-operation resources
	// (tokens, priorities) here. By default it is only invoked for
	// operations that conflicted at least once; policies that also need
	// clean commits — e.g. to window abort rates — implement
	// CleanCommitObserver.
	OnCommit(c *Conflict)
	// OnAbort is called once when the operation is abandoned without
	// committing: a single-attempt Try that failed, or a retry loop
	// cancelled by its context. Like OnCommit it must release any
	// per-operation resources; it must not block.
	OnAbort(c *Conflict)
}

// CleanCommitObserver is an optional Policy extension. A policy whose
// WantsCleanCommits returns true receives OnCommit for every committed
// operation, even ones that never conflicted; other policies only see
// OnCommit after at least one OnConflict, which keeps the uncontended hot
// path free of bookkeeping.
type CleanCommitObserver interface {
	WantsCleanCommits() bool
}

// WantsCleanCommits reports whether p opted into clean-commit reports via
// CleanCommitObserver. The stm layer consults it once per Memory.
func WantsCleanCommits(p Policy) bool {
	o, ok := p.(CleanCommitObserver)
	return ok && o.WantsCleanCommits()
}
