// Package stm is a Go implementation of software transactional memory as
// introduced by Shavit and Touitou ("Software Transactional Memory",
// PODC 1995; Distributed Computing 10(2):99–116, 1997).
//
// A Memory is a fixed-size vector of uint64 words supporting static
// transactions: atomic multi-word updates whose data set (the set of word
// addresses read and written) is declared up front. The default commit
// engine is the paper's non-blocking cooperative protocol — per-word
// ownership records acquired in increasing address order, with
// non-redundant helping — so no transaction ever waits on a stalled peer:
// it completes the peer's work instead. A TL2-style global-version-clock
// engine is available as an alternative (see "Choosing an engine").
// See DESIGN.md for the protocols and internal/core for the engines.
//
// # Quick start: typed variables
//
// The front door is the typed layer: allocate Var[T] handles backed by the
// Memory's word allocator. A Var's codec spans a fixed word range, so each
// of its own operations — Load, Store, CompareAndSwap, Update — is a
// static transaction over those words and runs on the same pooled engine
// hot path as the raw API.
//
//	m, _ := stm.New(64)
//	checking, _ := stm.Alloc(m, stm.Int64())
//	savings, _ := stm.Alloc(m, stm.Int64())
//	checking.Store(900)
//	savings.Update(func(s int64) int64 { return s + 100 }) // returns the old value
//
// Codecs cover int64, uint64, float64, bool, and fixed-capacity strings
// (String(n)); implement Codec[T] to store structs across several words —
// the transaction stays static, just wider.
//
// Update functions and codecs must be deterministic and side-effect free:
// under contention the protocol lets several goroutines evaluate the same
// transaction's update, and all evaluations must agree.
//
// # Transactions over several variables: Atomically
//
// Anything that touches more than one variable — or whose data set
// depends on the data, such as walking a linked structure or following an
// index — runs in Atomically, which discovers the footprint as the
// transaction runs and then commits it through the same static engine:
//
//	err := m.Atomically(func(tx *stm.DTx) error {
//		from := stm.ReadVar(tx, checking)
//		if from < 250 {
//			tx.Retry() // block until a read variable changes
//		}
//		stm.WriteVar(tx, checking, from-250)
//		stm.WriteVar(tx, savings, stm.ReadVar(tx, savings)+250)
//		return nil
//	})
//
// Reads observe a consistent snapshot (torn states are never visible, so
// pointer chases cannot go astray); writes are buffered and installed
// atomically on commit; returning an error aborts the transaction and
// surfaces the error. Retry blocks until some word the transaction read
// changes, and Memory.OrElse composes alternatives (second runs when
// first retries; first has priority). The transaction function may be
// re-executed when validation fails, so it must have no side effects
// other than through the DTx. A transaction that writes nothing commits
// when its function returns, with no engine attempt and no ownership.
//
// Choosing between the forms: use a Var's own methods for one variable,
// and Atomically (with ReadVar/WriteVar) for everything that spans
// several — it composes (Retry, OrElse, the stmds in-transaction forms),
// and a stable call site (same footprint every time) commits
// allocation-free in steady state; see DESIGN.md §9. Where the words are
// known before the transaction starts and speculation is the cost to
// avoid, drop to a prepared raw Tx (see "Engine-level access" below): the
// static form skips speculation and validation entirely.
//
// # Choosing a structure: the stmds package
//
// Ready-made concurrent structures composed from these layers live in
// the stmds subpackage: Map[K, V] (hash map with transactional
// incremental resize), Set[K], Queue[T] (bounded FIFO with blocking
// Put/Take), and PQ[T] (bounded priority queue). Use Map/Set for point
// access by key — operations touch only a probe chain, so disjoint keys
// run in parallel; Queue where hand-off is the point (put and take
// serialize by design); PQ for retrieval in priority order. Every
// operation has a standalone form and an in-transaction form (GetTx,
// PutTx, TakeTx, ...) that joins a caller's Atomically block, so moving
// an element between structures is one atomic step. Stable-shape
// operations run at zero heap allocations per op; the benchmark of
// record's lib-map workload measures the map on both engines. See the
// stmds package docs and DESIGN.md §10.
//
// # Engine-level access: raw words
//
// Underneath is the paper's static transaction over explicit word
// addresses. Memory.Prepare validates a data set and returns a Tx; the
// data set must be non-empty, in bounds and strictly ascending, as the
// paper's is, and anything else is rejected with ErrEmptyDataSet,
// ErrAddrRange, ErrDupAddr or ErrAddrOrder. Tx.TryInto is the paper's
// StartTransaction: one attempt of an UpdateInto over the old values,
// which on conflict helps the blocker and reports failure. Tx.RunInto
// retries under the contention policy until it commits. Memory.WriteAll is
// the atomic store of such a data set, with no update function to prepare;
// Memory.ReadAllInto, its consistent read, is a read-only Atomically.
//
//	tx, _ := m.Prepare([]int{4, 9})
//	tx.RunInto(func(old, new []uint64) { new[0], new[1] = old[0]-1, old[1]+1 }, nil)
//
// Reserve raw regions from the same allocator with AllocWords so typed and
// raw words never collide; VarAt overlays typed access on raw words.
//
// # Choosing an engine
//
// The commit protocol itself is pluggable per Memory (WithEngine). Two
// engines ship; every layer above — typed, dynamic, stmds, contention
// policies — runs unchanged, and at the same zero-allocation contract,
// on either:
//
//   - stm.ST (the default) is the paper's cooperative-helping ownership
//     protocol. Every static attempt acquires ownership of its whole data
//     set; a dynamic commit owns only the words it writes and validates
//     every word it read; a blocked attempt, or a read, helps its blocker
//     to completion. No transaction ever waits on a preempted peer — the
//     strongest liveness — at the cost of several atomic read-modify-writes
//     per owned word.
//   - stm.TL2 is a TL2/LSA-style global-version-clock protocol: reads
//     are invisible (no ownership, validated against a clock sample),
//     writes commit under short per-word locks, and read-only
//     attempts commit with zero atomic read-modify-writes; the trade is
//     that a preempted committer briefly blocks conflicting writers,
//     which retry under the contention policy instead of helping. The
//     benchmark of record (go run ./benchmark) measures both engines on
//     every workload.
//
// A transaction that wrote nothing (a read-only Atomically or OrElse, and
// so ReadAllInto, Var.Load, a failed Var.CompareAndSwap, a stmds.Map.Get)
// is the exception to both: it is committed where its last read was
// admitted, with no attempt on either engine, owning nothing on ST.
//
// Rule of thumb: reach for TL2 when reads dominate or scalability of
// read paths matters; keep ST when worst-case progress under preemption
// is the priority or when reproducing the paper's protocol is the point.
// ParseEngine maps the selector strings ("st", "tl2") used by the
// binaries' -engine flags; Memory.Engine reports the choice. See
// DESIGN.md §11 for both protocols and the opacity argument.
//
// # Observing a Memory
//
// Every Memory carries an observability seam (Observe, Stats,
// DebugString) that costs one predicted branch per hook site while off —
// the default — and zero allocations at every level when on. ObsCounters
// adds a per-engine abort taxonomy to Stats (ST: ownership conflicts vs
// helping-induced aborts; TL2: read vs lock vs validate failures, plus
// read-only commits and clock-race telemetry) and delivers attempt
// events to a registered Observer. ObsHistograms adds commit/abort
// latency and set-size histograms on a coarse-ticks source (no time.Now
// on the attempt path; see TickInterval for the precision contract).
// ObsTrace samples 1-in-SampleEvery per-transaction traces:
//
//	tracer := stmobs.NewRingTracer(256)
//	m.Observe(stm.ObsConfig{Level: stm.ObsTrace, Observer: tracer, SampleEvery: 1024})
//	stmobs.Publish("stm", m) // live snapshot at /debug/vars
//
// The stmobs subpackage holds the export surfaces — expvar publisher,
// ring tracer, event counters, pprof label tagging. See DESIGN.md §12.
//
// # Deferred actions and serving over the network
//
// A transaction body must stay free of external effects (it may
// re-execute), so DTx.OnCommit and DTx.OnAbort register deferred actions
// that run exactly once after the outcome is decided — the minimal
// open-nesting escape hatch for "send the reply after the commit
// installs". The stmserve subpackage builds a full pipelined network
// server on it: a RESP-like TCP protocol whose every command (and every
// MULTI/EXEC group) is one atomic transaction over stmds structures,
// with blocking pops on Retry and zero-allocation steady-state command
// handling. See cmd/stmserve for the binary and DESIGN.md §13.
//
// # Choosing a contention policy
//
// A transaction that fails after helping its blocker retries after capped
// exponential backoff, contention.ExpBackoff, the policy every Memory gets
// by default. WithPolicy installs another contention.Policy; the seam exists
// so that a test can watch or steer conflicts. A policy shapes only timing,
// never correctness: every transaction inherits the protocol's non-blocking
// helping. Live conflict telemetry — Stats, ConflictCount, windowed via
// ResetStats — shows where transactions conflict.
//
// # Performance model
//
// The engine recycles transaction records, their buffers, and the
// per-word value boxes through a pool (DESIGN.md §4), so the hot paths
// are allocation-free in steady state:
//
//   - Var.Load, Var.Store and Var.CompareAndSwap perform zero heap
//     allocations (amortized) — modulo what the codec itself allocates
//     (the built-in numeric/bool codecs allocate nothing; String's Decode
//     builds a string). So does an Atomically call site with a stable
//     footprint, which Load and CompareAndSwap are: the DTx, its logs,
//     and the compiled footprint recycle through pools.
//   - Tx.RunInto, Tx.TryInto, Memory.ReadAllInto and Memory.WriteAll are
//     the raw equivalents: zero heap allocations for any data set, with
//     the caller's slices for addresses, values and old values. Prepare
//     itself allocates the Tx, once per data set.
//   - Var.Update pays for the closure it builds around its function, one
//     allocation per call.
//
// Prefer a stable Atomically call site (typed) or RunInto on a prepared
// Tx (raw) on hot paths. See DESIGN.md §6 and §8 for the full accounting;
// every bound above is a testing.AllocsPerRun assertion in the package
// tests.
package stm
