package stm

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/stm-go/stm/internal/backoff"
	"github.com/stm-go/stm/internal/core"
)

// Dynamic transactions: Shavit & Touitou's paper observes that a static STM
// can serve as the substrate for dynamic ones — run the transaction
// speculatively to discover its data set, then execute it through the
// static protocol once the footprint is known. This file is that
// construction. An attempt speculates with ownership-free versioned
// snapshot reads (core.StableLoadBox: a committed box, never a mid-install
// state) and admits each new one by comparing a single word, the Memory's
// commit epoch (core.CommitEpoch), against the sample it took before its
// first read: unchanged means no commit stepped in between, so everything
// logged so far is still current beside the new read and the user function
// only ever observes consistent states (opacity) at O(1) per read. Only
// when the epoch has moved does the attempt extend its snapshot — re-sample,
// then re-check every logged read — or unwind. A speculation that ends
// having written nothing is committed there and then: the same argument
// shows its whole log current at one instant inside the call, so it returns
// with no engine attempt, no ownership and no record. Only a log that holds
// a write goes on, and what the engine gets is a WriteAll of its write set:
// the written words, sorted, are the data set the one static driver stores
// the buffered values into, and every word the speculation read — written
// or not — rides beside them as a read list, in log order, which the engine
// validates against the speculation's epoch sample (on ST once for all
// helpers) and never sorts or installs. A stale read list fails the attempt
// and the speculation re-executes: that is the one way a read that moved
// before the commit ends. See DESIGN.md §9.

// ErrRetryNoReads reports a Retry in a transaction (or in both branches of
// an OrElse) that read nothing: with an empty read set there is no word
// whose change could ever wake the transaction, so blocking would be
// forever. Read the condition you are waiting on before retrying.
var ErrRetryNoReads = errors.New("stm: Retry in a transaction that read no words")

// DTx is a dynamic transaction in flight: the handle through which the
// function passed to Atomically/OrElse reads and writes transactional
// words, discovering the data set as it goes. Typed access goes through
// ReadVar/WriteVar; raw word access through Read/Write.
//
// A DTx is valid only inside its transaction function, on that function's
// goroutine: it must not be retained, shared, or used after the function
// returns. The function itself may be executed several times (the
// speculation re-runs when validation fails or after a Retry wakeup), so
// it must be free of side effects other than through the DTx — writes are
// buffered in the DTx and reach memory only when the whole transaction
// commits.
type DTx struct {
	m *Memory

	// log is the discovered data set in access order, one entry per
	// distinct address (reads and writes of a logged address hit the
	// entry, so the set is deduplicated by construction).
	log []dEntry

	// logHW is how far into log's backing array the operation has written
	// since the handle left the pool — the prefix putDTx has to clear. The
	// log is truncated, not cleared, between executions.
	logHW int

	// epoch is the commit-epoch sample the logged reads are validated
	// against: taken before the execution's first read, replaced by each
	// successful extend, and kept when an OrElse's second branch continues
	// the log of a first branch that retried.
	epoch uint64

	// idx indexes the log by address from its first entry: open addressing
	// over idx[:1<<idxBits], load at most one half, rebuilt from the log
	// whenever the table in use has to grow. A slot is live while its ticket
	// exceeds idxBase, and a rebuild or reset begins by raising idxBase to
	// idxTop, the highest ticket handed out — so retiring the whole table is
	// one assignment, and an execution that stays small only ever touches a
	// small prefix of a table some earlier one grew.
	idx     []dtxSlot
	idxBits uint   // the table in use is idx[:1<<idxBits]
	idxBase uint64 // slots with ticket <= idxBase are empty
	idxTop  uint64

	// fpSorted is the compiled engine-order data set: the words the log
	// writes.
	fpSorted []int

	wbuf []uint64 // codec staging for ReadVar/WriteVar

	// Deferred actions (OnCommit/OnAbort): run exactly once, outside the
	// speculative body, after the transaction's outcome is decided. Only
	// the registrations of the final execution survive — resetLog drops
	// the lists at the start of every round, keepReads when an OrElse falls
	// through to its second branch.
	onCommit []func()
	onAbort  []func()

	// Snapshot extensions this operation made, the logged reads they
	// re-checked, how many found a read stale, and whether the operation
	// committed read-only (no engine attempt), counted here and folded into
	// the Memory's stats (on shard) once, when the handle is recycled.
	exts, rechecked, stales, roCommits uint64
	shard                              int

	active bool  // inside the transaction function
	wrote  bool  // the execution buffered a write: the log needs the engine
	err    error // error carried by sigAbort
}

// dtxSlot is one slot of the log index: a logged address and a ticket,
// idxBase+1 plus its log position when it was written.
type dtxSlot struct {
	addr   int
	ticket uint64
}

// dEntry is one logged address: the box observed at first read (nil for a
// blind write, and for a read of a word no commit has changed, whose first
// box is nil; read tells the two apart), the value the speculation read
// there (rval, validated at commit when read is set), and the value the
// transaction currently sees (val — rval overlaid with any buffered write).
type dEntry struct {
	addr    int
	box     *uint64
	rval    uint64
	val     uint64
	read    bool
	written bool
}

// dtxSignal is the speculation outcome; the non-zero values double as
// panic sentinels that unwind the user function mid-flight. They are small
// constants so raising one allocates nothing.
type dtxSignal uint8

const (
	specDone dtxSignal = iota // function returned nil: footprint complete
	sigRetry                  // Retry(): block until a read word changes
	sigStale                  // a speculative read found the snapshot stale
	sigAbort                  // function returned or raised an error (DTx.err)
)

// dtxIdxMinBits sizes the table every execution starts indexing through.
const dtxIdxMinBits = 6

// Atomically executes f as one atomic transaction whose data set is
// discovered on the fly — the dynamic counterpart of Prepare, for
// pointer-chasing work where the footprint depends on the data. f's reads
// observe a consistent snapshot; its writes are buffered and installed
// atomically (through the static engine, retrying as a static transaction
// does) when f returns nil. If f returns an error the transaction aborts
// — no write reaches memory — and Atomically returns that error.
//
// A transaction that wrote nothing commits where its last read was
// admitted: it makes no engine attempt, owns no word, and on either engine
// costs its reads and nothing more (Stats().ReadOnlyCommits counts these;
// Attempts and Commits do not see them).
//
// f may be executed several times before the transaction commits and so
// must be deterministic and free of side effects other than through the
// DTx. A call site commits allocation-free in steady state (amortized,
// modulo codec allocations): the DTx, its logs, and the compiled footprint
// recycle through per-Memory pools. When the data set is raw words known up
// front, a prepared Tx skips speculation and validation entirely.
func (m *Memory) Atomically(f func(tx *DTx) error) error {
	return m.atomically(nil, f, nil)
}

// AtomicallyContext is Atomically with cancellation: retries and Retry
// waits end when ctx is done, and no execution of f starts under an
// already-cancelled ctx. A transaction that committed is never reported as
// cancelled. A nil ctx is never cancelled.
func (m *Memory) AtomicallyContext(ctx context.Context, f func(tx *DTx) error) error {
	return m.atomically(ctx, f, nil)
}

// OrElse composes two alternatives: it runs first, and if first blocks
// (calls Retry) runs second in its place, in the same transaction:
// first's writes and deferred actions are discarded, but its reads stay
// part of the transaction, at the values first saw. So second reads the
// same snapshot, and the operation commits second only where first still
// blocks. If both block, the operation waits until a word either branch
// read changes, then starts over from first — so first always has
// priority when both could proceed. An error from either branch aborts the
// whole operation (errors do not fall through to the other branch).
func (m *Memory) OrElse(first, second func(tx *DTx) error) error {
	if second == nil {
		return ErrNilUpdate
	}
	return m.atomically(nil, first, second)
}

// OrElseContext is OrElse with cancellation; see AtomicallyContext. A nil
// ctx is never cancelled.
func (m *Memory) OrElseContext(ctx context.Context, first, second func(tx *DTx) error) error {
	if second == nil {
		return ErrNilUpdate
	}
	return m.atomically(ctx, first, second)
}

// Read returns the word at addr as of the transaction's snapshot,
// recording addr in the read set. Reads are repeatable (a second Read of
// the same address returns the same value) and observe the transaction's
// own buffered writes. A read costs the same however many words the
// transaction has read before it — one hash probe finds a logged word or
// the slot a new one takes — unless another transaction's commit landed
// since the previous one: then the reads so far are re-checked once.
// Reading never takes ownership, not even at commit: a word a transaction
// only read is never an obstacle to a writer, and a transaction that only
// reads commits without visiting its words again.
func (d *DTx) Read(addr int) uint64 {
	d.check()
	pos, slot := d.find(addr)
	if pos >= 0 {
		return d.log[pos].val
	}
	if addr < 0 || addr >= d.m.Size() {
		d.abort(fmt.Errorf("%w: addr %d, size %d", ErrAddrRange, addr, d.m.Size()))
	}
	// The stable load returns a committed value — never the physical
	// mid-install state of a multi-word commit, which holds ownership of
	// every word it installs while installing (an observed owner is helped
	// to completion first).
	box := d.m.eng.StableLoadBox(addr)
	v := core.BoxVal(box)
	e := d.push(addr, slot)
	e.box, e.rval, e.val, e.read, e.written = box, v, v, true, false
	// Admit the new read only beside reads that still hold, so the user
	// function only ever sees states some linearization actually produced
	// (opacity) — it can never chase a pointer torn between two commits.
	// The epoch is compared after the stable load, never before: equal to
	// the sample, no commit stepped since the sample was taken, and every
	// logged box — each stably loaded since then — is still current at this
	// read's stable instant.
	if d.m.eng.CommitEpoch() != d.epoch && !d.extend() {
		panic(sigStale)
	}
	return v
}

// extend is the slow path of Read: a commit stepped since the epoch sample,
// so the logged reads — the one just admitted among them — have to be shown
// current again. The order is the soundness argument. The epoch is sampled
// anew first, and then every read is re-checked with a stable load, which
// gives each a fresh instant, after the new sample, at which its box was
// current and the word unowned: exactly what the fast path assumes of a
// logged read. A raw LoadBox compare would not do. A commit that stepped
// before the new sample and still holds the word, its install yet to come,
// leaves the old box in the cell; the raw compare passes, the install
// lands, and no later fast-path read can notice, since the epoch that
// commit moved is the one just adopted. A stale read reports false and Read
// unwinds the execution with sigStale.
func (d *DTx) extend() bool {
	d.epoch = d.m.eng.CommitEpoch()
	d.exts++
	for i := range d.log {
		e := &d.log[i]
		if !e.read {
			continue
		}
		d.rechecked++
		if d.m.eng.StableLoadBox(e.addr) != e.box {
			d.stales++
			return false
		}
	}
	return true
}

// Write buffers v as the transaction's new value for addr. The write
// reaches memory only if the whole transaction commits; it is visible to
// the transaction's own subsequent Reads immediately. A write to an
// address the transaction never read is a blind write: it is installed
// unconditionally, with no validation on that word.
func (d *DTx) Write(addr int, v uint64) {
	d.check()
	d.wrote = true
	pos, slot := d.find(addr)
	if pos >= 0 {
		d.log[pos].val = v
		d.log[pos].written = true
		return
	}
	if addr < 0 || addr >= d.m.Size() {
		d.abort(fmt.Errorf("%w: addr %d, size %d", ErrAddrRange, addr, d.m.Size()))
	}
	e := d.push(addr, slot)
	e.box, e.rval, e.val, e.read, e.written = nil, 0, v, false, true
}

// Retry abandons the attempt and blocks the transaction until some word it
// has read changes, then re-executes it from the start: the package's one
// guarded transaction. Under OrElse, a Retry in the first branch falls
// through to the second instead of blocking. A transaction that has read
// nothing cannot be woken; Retry then fails the operation with
// ErrRetryNoReads.
//
// Note that a wakeup is triggered by a word's value changing: a committed
// write that stores the value a word already held does not wake waiters.
func (d *DTx) Retry() {
	d.check()
	panic(sigRetry)
}

// OnCommit registers f as a deferred action: it runs exactly once, after
// the transaction has committed, outside the transaction — never inside
// the speculative body, which may execute many times. Actions run in
// registration order, after the commit's writes are installed and visible;
// a re-executed speculation's registrations are discarded, so only the
// actions registered by the execution that actually committed run. This is
// the open-nesting escape hatch for driving external effects (flushing a
// network reply, signalling a channel) from transactional code; see
// DESIGN.md §13 for what it does not promise — in particular, by the time
// f runs, later transactions may already have committed over the words
// this one wrote, and f itself runs under no atomicity at all.
//
// f must not use the DTx (the transaction is over) and must not be nil.
// A call site that registers a pre-bound function value stays
// allocation-free; an inline closure capturing variables allocates as any
// closure does.
func (d *DTx) OnCommit(f func()) {
	d.check()
	if f == nil {
		d.abort(ErrNilUpdate)
	}
	d.onCommit = append(d.onCommit, f)
}

// OnAbort registers f to run exactly once if the whole operation fails —
// Atomically (or OrElse) returning a non-nil error, whether from the
// transaction function, a cancelled context, or ErrRetryNoReads. Like
// OnCommit actions, abort actions run outside the transaction, in
// registration order, and only the final execution's registrations
// survive; a transaction that goes on to commit never runs them. An
// internal re-execution (validation failure, contention) is not an abort —
// it runs no actions.
func (d *DTx) OnAbort(f func()) {
	d.check()
	if f == nil {
		d.abort(ErrNilUpdate)
	}
	d.onAbort = append(d.onAbort, f)
}

// Memory returns the Memory the transaction runs against.
func (d *DTx) Memory() *Memory { return d.m }

// Footprint returns how many distinct words the transaction has touched so
// far (reads and buffered writes). In an OrElse's second branch it counts
// the reads of the first branch that retried as well: the second branch
// continues that branch's log, its writes discarded.
func (d *DTx) Footprint() int { return len(d.log) }

// check guards against a DTx escaping its transaction function.
func (d *DTx) check() {
	if !d.active {
		panic("stm: DTx used outside its transaction function")
	}
}

// abort unwinds the speculation with err; Atomically returns it.
func (d *DTx) abort(err error) {
	d.err = err
	panic(sigAbort)
}

// find probes the index once for addr: it returns addr's log position, or
// -1 and the free slot where push is to index it.
func (d *DTx) find(addr int) (pos, slot int) {
	mask := 1<<d.idxBits - 1
	for i := d.idxHome(addr); ; i = (i + 1) & mask {
		s := &d.idx[i]
		if s.ticket <= d.idxBase {
			return -1, i
		}
		if s.addr == addr {
			return int(s.ticket - d.idxBase - 1), i
		}
	}
}

// lookup returns addr's log position, or -1.
func (d *DTx) lookup(addr int) int {
	pos, _ := d.find(addr)
	return pos
}

// idxHome is addr's first probe position in the table in use (Fibonacci
// hashing: data-structure footprints are runs of consecutive addresses).
func (d *DTx) idxHome(addr int) int {
	return int(uint64(addr) * 0x9E3779B97F4A7C15 >> (64 - d.idxBits))
}

// push admits addr, which find did not find and placed at slot, to the
// log and the index, and returns its entry for the caller to fill in place.
// The caller must set every field but addr: the log is truncated, not
// cleared, so the entry holds whatever an earlier execution left there. An
// entry that would take the table past half full first doubles it and
// rebuilds it from the log.
func (d *DTx) push(addr, slot int) *dEntry {
	n := len(d.log)
	d.log = slices.Grow(d.log, 1)[:n+1]
	d.log[n].addr = addr
	if 2*(n+1) > 1<<d.idxBits {
		d.idxBits++
		d.reindex(n)
		_, slot = d.find(addr)
	}
	d.idxTop = d.idxBase + uint64(n) + 1
	d.idx[slot] = dtxSlot{addr: addr, ticket: d.idxTop}
	return &d.log[n]
}

// reindex retires the table in use and indexes log[:n] afresh in it.
func (d *DTx) reindex(n int) {
	if len(d.idx) < 1<<d.idxBits {
		d.idx = make([]dtxSlot, 1<<d.idxBits)
	}
	d.idxBase = d.idxTop
	for i := range n {
		_, s := d.find(d.log[i].addr)
		d.idx[s] = dtxSlot{addr: d.log[i].addr, ticket: d.idxBase + uint64(i) + 1}
	}
	d.idxTop = d.idxBase + uint64(n)
}

// varBuf returns the DTx's codec staging buffer, sized to k words.
func (d *DTx) varBuf(k int) []uint64 {
	if cap(d.wbuf) < k {
		d.wbuf = make([]uint64, k)
	}
	return d.wbuf[:k]
}

// resetLog rewinds the DTx for a fresh speculation; the buffers survive.
// Deferred actions registered by the abandoned execution are dropped — only
// the committing (or finally-failing) execution's actions ever run.
func (d *DTx) resetLog() {
	d.logHW = max(d.logHW, len(d.log))
	d.log = d.log[:0]
	d.idxBits, d.idxBase = dtxIdxMinBits, d.idxTop
	d.wrote = false
	d.clearHooks()
}

// keepReads turns the log of an OrElse first branch that retried into the
// start of the second branch's: every read stays, at the box and value it
// read, and every write dies — a read-then-written entry reverts to what it
// read, a blind write leaves the log. The epoch sample stays too, so the
// second branch admits its reads beside the first branch's under one chain
// of samples, exactly as if one function had made them all (DESIGN.md §9):
// its commit validates that the first branch still retries, and a Retry in
// it waits on the words both branches read. The registrations of the first
// branch are dropped with its writes.
func (d *DTx) keepReads() {
	d.logHW = max(d.logHW, len(d.log))
	n := 0
	for _, e := range d.log {
		if e.read {
			e.val, e.written = e.rval, false
			d.log[n] = e
			n++
		}
	}
	d.log = d.log[:n]
	d.reindex(n)
	d.wrote = false
	d.clearHooks()
}

// clearHooks drops every registered deferred action, keeping the slices'
// capacity (the amortization a stable call site relies on).
func (d *DTx) clearHooks() {
	clear(d.onCommit)
	d.onCommit = d.onCommit[:0]
	clear(d.onAbort)
	d.onAbort = d.onAbort[:0]
}

// runCommitHooks runs the committed execution's OnCommit actions, in
// registration order, exactly once; the abort actions die unrun. Entries
// are dropped as they run, so even an action that panics cannot run twice.
func (d *DTx) runCommitHooks() {
	clear(d.onAbort)
	d.onAbort = d.onAbort[:0]
	for i, f := range d.onCommit {
		d.onCommit[i] = nil
		f()
	}
	d.onCommit = d.onCommit[:0]
}

// runAbortHooks is runCommitHooks for a failed operation: the OnAbort
// actions run, the commit actions die unrun.
func (d *DTx) runAbortHooks() {
	clear(d.onCommit)
	d.onCommit = d.onCommit[:0]
	for i, f := range d.onAbort {
		d.onAbort[i] = nil
		f()
	}
	d.onAbort = d.onAbort[:0]
}

// speculate runs the user function once on the log as it stands,
// translating its outcome — and the sentinel panics raised by
// Read/Retry/abort mid-flight — into a dtxSignal. Panics that are not ours
// propagate to the caller of Atomically.
func (d *DTx) speculate(f func(tx *DTx) error) (sig dtxSignal) {
	d.active = true
	defer func() {
		d.active = false
		if r := recover(); r != nil {
			s, ok := r.(dtxSignal)
			if !ok {
				panic(r)
			}
			sig = s
		}
	}()
	if f == nil {
		d.err = ErrNilUpdate
		return sigAbort
	}
	if err := f(d); err != nil {
		d.err = err
		return sigAbort
	}
	return specDone
}

// readsAnything reports whether the log holds a read: whether a Retry has a
// word whose change can wake it.
func (d *DTx) readsAnything() bool {
	for i := range d.log {
		if d.log[i].read {
			return true
		}
	}
	return false
}

// readSetChanged reports whether any read word's box moved since the
// speculation read it — the Retry wakeup condition.
func (d *DTx) readSetChanged() bool {
	for i := range d.log {
		e := &d.log[i]
		if e.read && d.m.eng.LoadBox(e.addr) != e.box {
			return true
		}
	}
	return false
}

// waitReadSet blocks until the wait set changes (or ctx is done),
// escalating on a condition backoff: a parked waiter must not hammer the
// very lines the eventual writer needs. The box snapshots were taken during
// the speculation, so a write that landed between speculation and this
// check is seen immediately — no wakeup can be lost to the gap.
func (d *DTx) waitReadSet(ctx context.Context) error {
	var bo backoff.Exp
	for !d.readSetChanged() {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		bo.Wait()
	}
	return nil
}

// compileFootprint lays out the words the log writes — the commit's data
// set — in engine order: a sort of their addresses, a flat slice of ints,
// which slices.Sort orders with no interface and no callback. The words the
// log read stay in log order (stageDyn hands them to the engine as a read
// list), so the sort costs what the transaction wrote, not what it touched.
func (d *DTx) compileFootprint() {
	d.fpSorted = d.fpSorted[:0]
	for i := range d.log {
		if d.log[i].written {
			d.fpSorted = append(d.fpSorted, d.log[i].addr)
		}
	}
	slices.Sort(d.fpSorted)
}

// stageDyn copies d's compiled write set's buffered values into the
// record's repl, in engine order, and every entry it read, in log order,
// into its read list — by copy, because helpers may validate the list after
// d has moved on.
func (s *scratch) stageDyn(d *DTx) {
	s.repl = s.repl[:0]
	for _, a := range d.fpSorted {
		s.repl = append(s.repl, d.log[d.lookup(a)].val)
	}
	s.rdAddrs, s.rdExp = s.rdAddrs[:0], s.rdExp[:0]
	for i := range d.log {
		if ent := &d.log[i]; ent.read {
			s.rdAddrs = append(s.rdAddrs, ent.addr)
			s.rdExp = append(s.rdExp, ent.rval)
		}
	}
}

// getDTx draws a pooled dynamic-transaction handle.
func (m *Memory) getDTx() *DTx {
	if v := m.dtxPool.Get(); v != nil {
		return v.(*DTx)
	}
	return &DTx{m: m, shard: core.StatShard(), idx: make([]dtxSlot, 1<<dtxIdxMinBits)}
}

// putDTx recycles a handle, dropping every box pointer and error the last
// operation logged so an idle pooled DTx retains nothing of it; the value
// buffers, the index and the compiled-footprint buffers stay — they are the
// amortization. What it costs depends on the operation that ends here, not on the
// largest one the handle ever ran: the log is cleared up to this operation's
// high-water mark, beyond which it is clear already, and the index
// (addresses and tickets, no pointers) needs nothing.
func (m *Memory) putDTx(d *DTx) {
	// resetLog folds the last execution into logHW and drops the deferred
	// actions: normally the run/clear helpers have consumed those, but a
	// user panic unwinding through atomically can leave them registered,
	// and a pooled DTx must retain no caller state. (Nothing is ever left
	// beyond the lists' lengths: every truncation clears what it cuts off.)
	d.resetLog()
	clear(d.log[:d.logHW])
	d.logHW = 0
	d.err = nil
	if d.exts|d.roCommits != 0 {
		m.eng.NoteSnapshotExtensions(d.shard, d.exts, d.rechecked, d.stales, d.roCommits)
		d.exts, d.rechecked, d.stales, d.roCommits = 0, 0, 0, 0
	}
	m.dtxPool.Put(d)
}

// fail ends the operation with err: the final execution's OnAbort actions
// run.
func (d *DTx) fail(err error) error {
	d.runAbortHooks()
	return err
}

// atomically is the speculation loop shared by Atomically, OrElse, and
// their Context forms (second is nil outside OrElse). Each round speculates
// to discover a footprint; when first retries, second continues its log
// (keepReads), so a round is one log under one snapshot however it ends. A
// round that wrote nothing is the commit: its reads were all current at one
// instant inside the call (DESIGN.md §9), so the operation returns without
// the engine. Any other round commits its write set through the one static
// driver — acquire the written words in ascending order, validate every
// word read, and install the buffered values — and a stale read sends the
// round back to re-execute. One backoff spans the whole operation: every
// failure — an ownership conflict at commit, a stale speculative read, a
// validation miss — waits on it, as a static operation's failures do, until
// a Retry parks the operation; the wake-up starts a fresh one.
func (m *Memory) atomically(ctx context.Context, first, second func(tx *DTx) error) error {
	d := m.getDTx()
	defer m.putDTx(d)
	var bo backoff.Exp
	st := staged{op: opDyn, d: d} // addrs: each round's compiled footprint
	for {
		// Unlike the static forms, which always make their first attempt, a
		// dynamic transaction does not start (or restart) a speculation
		// under a cancelled context.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return d.fail(err)
			}
		}
		d.resetLog()
		// Sampled before the first read, so every read the round logs has
		// its stable instant after the sample.
		d.epoch = m.eng.CommitEpoch()
		sig := d.speculate(first)
		if sig == sigRetry && second != nil {
			d.keepReads()
			sig = d.speculate(second)
		}
		switch sig {
		case sigAbort:
			err := d.err
			d.err = nil
			return d.fail(err)
		case sigStale:
			bo.Wait()
			continue
		case sigRetry:
			if !d.readsAnything() {
				return d.fail(ErrRetryNoReads)
			}
			// The park is a condition wait, not contention: the conflicts
			// before it say nothing about the ones after the wake-up.
			bo = backoff.Exp{}
			if err := d.waitReadSet(ctx); err != nil {
				return d.fail(err)
			}
			continue
		}
		// specDone: commit the discovered footprint. After a fall-through the
		// log holds the retried first branch's reads too, so either commit
		// below also shows that branch still retries at its linearization
		// point: left priority holds there, not just at speculation time.
		if !d.wrote {
			// Nothing written: the transaction is already committed, at the
			// instant its last read was admitted, and no engine attempt
			// runs. The deferred commit actions run as after any commit.
			d.roCommits++
			d.runCommitHooks()
			return nil
		}
		d.compileFootprint()
		st.addrs = d.fpSorted
		// Ownership conflicts re-attempt the same write set; a stale read
		// list comes back for a fresh speculation.
		if err := m.contend(ctx, &st, nil, &bo); err == errStaleRead {
			continue
		} else if err != nil {
			return d.fail(err)
		}
		d.runCommitHooks()
		return nil
	}
}
