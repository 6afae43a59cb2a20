// Package core implements the Shavit–Touitou software transactional memory
// protocol (PODC 1995) for real Go goroutines on real hardware.
//
// The protocol executes static transactions: multi-word atomic updates whose
// data set (the set of word addresses touched) is declared when the
// transaction starts. A transaction
//
//  1. acquires per-word ownership records in increasing address order,
//  2. decides its status (exactly once, by CAS from Null),
//  3. agrees on the old values of its data set (set-once per word, so every
//     helper observes the same snapshot),
//  4. computes new values with a deterministic update function,
//  5. writes the new values and releases ownership.
//
// A record may also carry a read list (Rec.SetReadSet): words its caller
// read and does not write, never owned, only validated — after step 2, once
// for every helper — against the commit-epoch sample they were read under.
// That is how a dynamic transaction, built on the static protocol, commits
// its write set alone (DESIGN.md §9); a stale list fails the attempt with
// nothing installed.
//
// If acquisition finds a word owned by another transaction, the transaction
// fails itself (CAS status to Failure) and the initiating goroutine helps
// the blocking transaction run to completion before retrying — the paper's
// "non-redundant helping": only the transaction that blocked you, and
// helpers never help further (no recursion). Ordered acquisition makes the
// whole construction non-blocking: among any set of conflicting
// transactions, the one holding the highest contested address can always
// complete.
//
// # LL/SC on a garbage-collected host
//
// The paper specifies the protocol with Load-Linked/Store-Conditional. This
// package gets equivalent ABA-safe semantics from Go's garbage collector:
// every memory word is an atomic.Pointer to an immutable boxed value, and
// every committed store publishes a box address that has never been
// published before. A CompareAndSwap on the pointer succeeds only if the
// word was not written since it was read, because a live box pointer is
// never recycled. Transaction records are reused — Begin arms one, RunAttempt
// consumes it — and the seal/pin generation guard keeps a helper from ever
// confusing two attempts of one record, the role played by version numbers
// in the paper's (non-GC) setting (DESIGN.md §4). The simulator build
// (internal/sim) keeps the paper's exact versioned records instead,
// because simulated memory has no GC.
//
// # Hot-path memory behavior
//
// An attempt is allocation-free in steady state: records (with their
// old-value slots, evaluation buffers, and attached Env scratch) recycle
// through a per-Memory sync.Pool, and value boxes are carved from a
// per-record backing chunk — one allocation amortized over boxChunk
// committed words, with each carved address published at most once, ever,
// preserving the LL/SC argument. Each memory word packs its value cell and
// ownership record into one padded cache line, and the protocol counters
// are sharded per cache line, so neither adjacent words nor bookkeeping
// false-share (DESIGN.md §3). The first helper of an attempt evaluates the
// update function into a second pair of record buffers it claims with one
// CAS; only a further concurrent helper of the same attempt allocates
// buffers of its own.
//
// # Benign races inherited from the paper
//
// A maximally stale helper can acquire a word on behalf of a transaction
// that already committed and released. This leaves the word owned by a
// decided record. The protocol self-heals: the next transaction that needs
// the word helps the decided record, and helping a decided record simply
// re-runs its idempotent completion phases, which release the word. The
// paper's versioned records exhibit the same window between version check
// and SC; see DESIGN.md §4.
package core
