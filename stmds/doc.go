// Package stmds provides generic transactional data structures composed
// from the stm package's public layers: a hash map with transactional
// incremental resize (Map), a set (Set), a bounded FIFO queue with
// blocking operations (Queue), and a bounded priority queue (PQ).
//
// Every structure lays its state out in the words of one stm.Memory, so
// each operation is an atomic transaction and — the point of building on
// STM — operations on different structures sharing a Memory compose into
// one atomic step. Each structure therefore offers two forms of every
// operation:
//
//   - the standalone form (Map.Get, Queue.Put, ...) runs its own
//     transaction and is what most callers want;
//   - the in-transaction form (Map.GetTx, Queue.PutTx, ...) takes a
//     *stm.DTx and joins the caller's Memory.Atomically block.
//
// Composition is the point of the Tx forms — e.g. an element moves from a
// Queue into a Map atomically:
//
//	err := m.Atomically(func(tx *stm.DTx) error {
//		job := q.TakeTx(tx)          // blocks (Retry) while empty
//		mp.PutTx(tx, job.ID, job)    // both effects commit together
//		return nil
//	})
//
// Blocking operations (Queue.Put on a full queue, Queue.Take and
// PQ.TakeMin on an empty one) wait by calling DTx.Retry, so they park
// until a word they read changes rather than spinning; the TryX forms are
// built from Memory.OrElse and never block.
//
// # Choosing a structure
//
//   - Map[K, V]: point lookups and updates by key. Operations touch a
//     probe chain of a few slots, so disjoint keys run in parallel.
//     Resize is incremental: while it is in flight every write migrates
//     a few slots inside its own transaction, so a transaction owns as
//     many old-table slots as it makes writes, up to a whole table.
//   - Set[K]: Map[K, struct{}] with a thinner API.
//   - Queue[T]: bounded FIFO. Put/Take conflict on the head/tail words,
//     so a queue is a serialization point by design; use it where that
//     hand-off is the semantics you want (pipelines, work distribution).
//   - PQ[T]: bounded min-heap keyed by a uint64 priority. Operations
//     touch a root-to-leaf path (O(log n) words).
//
// # Footprint strategy and allocation
//
// Operations whose footprint depends on the data — map probe chains,
// resize migration steps, heap sift paths — are discovered on the fly by
// the dynamic layer (Memory.Atomically). Operations with a statically
// known footprint but a per-call payload (queue put/take, heap push) also
// ride the dynamic commit: it is the one public path that stages every
// input in engine-owned scratch, which keeps the payload safe from the
// protocol's helping goroutines (see DESIGN.md §10). Len is its LenTx in
// a transaction of its own, which commits read-only. Either way the
// hot paths recycle per-structure operation scratch through sync.Pools,
// so stable-shape operations settle at zero heap allocations per op —
// pinned by this package's allocation tests.
//
// All structures are safe for concurrent use by any number of goroutines.
// Word storage is reserved from the Memory's allocator at construction
// (and, for Map, at each growth step); like every stm allocation it is
// never freed, so size the Memory for the structures it will host — the
// constructors' *Words helpers give the footprint arithmetic.
package stmds
