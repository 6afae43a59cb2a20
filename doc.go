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
// Memory's word allocator, and run typed transactions over them. Every
// typed transaction compiles to a static transaction — a Var's codec spans
// a fixed word range, so the data set is known before the transaction
// starts — and runs on the same pooled engine hot path as the raw API.
//
//	m, _ := stm.New(64)
//	checking, _ := stm.Alloc(m, stm.Int64())
//	savings, _ := stm.Alloc(m, stm.Int64())
//	checking.Store(900)
//
//	// Atomically move money between two typed variables.
//	_ = stm.Atomic2(checking, savings, func(c, s int64) (int64, int64) {
//		return c - 250, s + 250
//	})
//
// Codecs cover int64, uint64, float64, bool, and fixed-capacity strings
// (String(n)); implement Codec[T] to store structs across several words —
// the transaction stays static, just wider. Var.Load, Store, and Update
// give single-variable atomic access.
//
// Hot paths declare once and run many times: a TxSet records a set of
// vars, validates and sorts their words once, and caches the compiled
// transaction, so repeat executions are allocation-free — the same
// zero-allocs-per-op contract as the raw prepared hot path, with types:
//
//	ts := stm.NewTxSet(m)
//	ch := stm.AddVar(ts, checking)
//	sv := stm.AddVar(ts, savings)
//	_ = ts.Compile()
//	_ = ts.Run(func(tv stm.TxView) {     // 0 allocs/op, reusable
//		ch.Set(tv, ch.Get(tv)+10)
//		sv.Set(tv, sv.Get(tv)+1)
//	})
//
// RunWhen/RunWhenContext add guarded (blocking-style) typed transactions;
// RunContext adds cancellation. A TxSet is a single-goroutine handle
// (prepare one per goroutine); the Vars and Memory underneath are shared.
//
// Update functions, guards, and codecs must be deterministic and
// side-effect free: under contention the protocol lets several goroutines
// evaluate the same transaction's update, and all evaluations must agree.
// Read a transaction's committed snapshot back through Slot.Old rather
// than writing to captured variables. AtomicN extends the one-shot
// combinators past three variables of one type.
//
// # Dynamic transactions: Atomically
//
// When the data set depends on the data — walking a linked structure,
// following an index — declare nothing and use Atomically, which
// discovers the footprint as the transaction runs and then commits it
// through the same static engine:
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
// Choosing between the forms: use Var/TxSet (or a prepared raw Tx) when
// the variables touched are known before the transaction starts — the
// static forms skip speculation and validation entirely and are the
// fastest paths. Use Atomically when the footprint is data-dependent, or
// when you need Retry/OrElse composition. A stable Atomically call site
// (same footprint every time) still commits allocation-free in steady
// state; see DESIGN.md §9.
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
// The word-addressed API underneath is fully supported for engine-level
// work: Prepare/Tx.Run(Into) for static transactions over explicit
// addresses, and the derived operations ReadAll, WriteAll, Add, Swap,
// CompareAndSwap, CompareAndSwapN, plus Tx.RunWhen for guarded updates.
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
//     protocol. Every attempt, including a static pure read (Var.Load,
//     ReadAll), acquires ownership of its whole data set; a blocked
//     attempt helps its blocker to completion. No transaction ever waits
//     on a preempted peer — the strongest liveness — at the cost of
//     several atomic read-modify-writes per word even on such reads.
//   - stm.TL2 is a TL2/LSA-style global-version-clock protocol: reads
//     are invisible (no ownership, validated against a clock sample),
//     writes commit under short per-word locks, and read-only
//     attempts commit with zero atomic read-modify-writes; the trade is
//     that a preempted committer briefly blocks conflicting writers,
//     which retry under the contention policy instead of helping. The
//     benchmark of record (go run ./benchmark) measures both engines on
//     every workload.
//
// A dynamic transaction (Atomically, OrElse) that wrote nothing is the
// exception to both descriptions: it makes no attempt on either engine —
// it is committed where its last read was admitted — so a stmds.Map.Get
// owns nothing on ST and skips even the zero-RMW attempt on TL2.
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
// How a transaction defers its retries is pluggable per Memory
// (WithPolicy, WithPolicyFactory; see the contention package). The default,
// contention.ExpBackoff, is the safe all-rounder. Pick
// contention.Aggressive when conflicts are rare or short-lived and latency
// matters more than wasted attempts; contention.Karma when a few large
// transactions must not be starved by many small ones; and
// contention.Adaptive when hot spots come and go — it backs off while a
// conflict domain is healthy and serializes the domain through an expiring
// time lease when the measured abort rate says helping is being wasted.
// Policies shape only timing, never correctness: every policy inherits the
// protocol's non-blocking helping, and the adaptive lease expires rather
// than being held, so no policy can deadlock a transaction. Live conflict
// telemetry — Stats, ConflictCount, windowed via ResetStats — shows what
// the policy is reacting to. The four policies are tested for behaviour,
// not measured against each other: no policy is claimed faster on the
// benchmark of record (see DESIGN.md §7).
//
// # Performance model
//
// The engine recycles transaction records, their buffers, and the
// per-word value boxes through a pool (DESIGN.md §4), so the hot paths
// are allocation-free in steady state:
//
//   - A compiled TxSet's Run (and the Context/When variants between
//     waits) performs zero heap allocations per committed transaction
//     (amortized), as do Var.Load and Var.Store — modulo what the codec
//     itself allocates (the built-in numeric/bool codecs allocate
//     nothing; String's Decode builds a string). An Atomically call site
//     with a stable footprint matches the zero-allocation contract: the
//     DTx, its logs, and the compiled footprint recycle through pools.
//   - Tx.RunInto and Tx.TryInto are the raw equivalents: zero heap
//     allocations with a caller-supplied old buffer (for permuted
//     declarations up to 16 words; larger permuted data sets stage one
//     snapshot buffer per call).
//   - Add, Swap, CompareAndSwap, ReadAllInto, and WriteAll/ReadAll over
//     already-ascending address sets run on the same pooled fast path;
//     ReadAll and CompareAndSwapN allocate only their returned snapshot.
//   - The convenience forms pay per call: Var.Update and the Atomic
//     combinators build their closure (and the TxSet) each time;
//     Tx.Run/Try allocate the result slice and an adapter; AtomicUpdate
//     and non-ascending k-word operations additionally re-Prepare.
//
// Prefer a compiled TxSet (typed) or RunInto on a prepared Tx (raw) on hot
// paths; use the convenience forms where clarity matters more than
// allocation. See DESIGN.md §6 and §8 for the full accounting; every
// bound above is a testing.AllocsPerRun assertion in the package tests.
package stm
