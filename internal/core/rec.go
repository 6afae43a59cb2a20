package core

import "sync/atomic"

// CalcFunc is the engine's update contract. It computes the transaction's
// new values from the agreed old values, writing them into new (len(new) ==
// len(old), both in the engine's sorted address order), and must not retain
// either slice.
//
// env is the opaque per-attempt payload installed with Rec.SetEnv before
// RunAttempt; under helping several goroutines may evaluate the same
// CalcFunc concurrently with the same env, so implementations must treat
// env as read-only and must be deterministic and side-effect free: every
// evaluation must arrive at identical new values (the first computed result
// is published and shared, but correctness of concurrent evaluation still
// requires purity).
//
// exclusive is true only for the initiating goroutine's evaluation, which
// has exclusive use of any scratch buffers attached to env; helpers receive
// exclusive=false and must use their own (typically freshly allocated)
// scratch instead of writing to shared env fields.
type CalcFunc func(env any, old, new []uint64, exclusive bool)

// Transaction status encoding. A record's status word starts at statusNull
// and is decided exactly once, by CompareAndSwap, to either statusSuccess or
// a failure word carrying the index (within the sorted data set) of the
// address whose ownership could not be acquired.
const (
	statusNull    int64 = 0
	statusSuccess int64 = 1
	statusFailed  int64 = 2 // low bits; failing index is stored in the high bits
)

func failureAt(idx int) int64 { return statusFailed | int64(idx)<<2 }

func isFailure(st int64) bool { return st&3 == statusFailed }

func failureIndex(st int64) int { return int(st >> 2) }

// Rec is a transaction record: the shared descriptor through which the
// initiating goroutine and any helpers cooperate to execute one transaction
// attempt.
//
// Records are drawn by Memory.Begin, consumed by Memory.RunAttempt, and
// recycled through a sync.Pool under the seal/pin generation guard below,
// which guarantees a helper can never confuse two attempts of one record —
// the role played by version numbers in the paper's non-GC setting — without
// a per-attempt allocation; see DESIGN.md §4.
type Rec struct {
	// Immutable for the duration of one attempt (published to helpers by
	// the first ownership CAS, which establishes the necessary
	// happens-before edge).
	addrs []int // data set, strictly ascending
	calc  CalcFunc
	env   any // opaque payload for calc; persists across pool cycles

	// version is the record's diagnostic identity, bumped per attempt,
	// and the sequence number of its observability events. It is atomic
	// so that a reader holding a stale pointer to a pooled record loads a
	// neighbouring attempt's value instead of racing the re-arm store.
	version atomic.Uint64

	// old holds the agreed snapshot: old[i] is the boxed value of addrs[i]
	// at the transaction's linearization point. Entries are set-once (CAS
	// from nil) so all helpers agree.
	old []atomic.Pointer[uint64]

	// newVals caches the first computed result of calc so helpers do not
	// recompute it; all computed results are identical by the CalcFunc
	// contract.
	newVals atomic.Pointer[[]uint64]

	status     atomic.Int64
	allWritten atomic.Bool

	// Read list (SetReadSet): the words the attempt read, beside its data
	// set — in the caller's order, possibly also in addrs, never owned,
	// locked, agreed or installed as read-list words, only validated:
	// reads[i] must still hold exp[i], the value the caller read there
	// after sampling the CommitEpoch value sample. Empty for an attempt
	// without one. Like addrs they are immutable while the attempt runs.
	reads  []int
	exp    []uint64
	sample uint64

	// verdict settles the read list for every ST participant, once, like
	// status: statusNull until the first finished validation CASes in
	// statusSuccess (every read still holds exp) or failureAt(i) (read-list
	// word i was owned or had moved). See Memory.validateReads.
	verdict atomic.Int64

	// stable is true while the initiating goroutine is inside
	// StartTransaction; helpers only volunteer for stable records. Helping
	// a record that just turned unstable is benign (all completion phases
	// are idempotent).
	stable atomic.Bool

	// Seal/pin generation guard for record reuse. A helper pins the
	// record before executing its protocol and aborts if the record is
	// sealed; the owner seals the record after the attempt and recycles it
	// only if no helper is pinned. sealed.Store(true) → pins.Load()==0 vs
	// pins.Add(1) → sealed.Load() is a store-load (Dekker) pair: under Go's
	// sequentially consistent atomics, either the recycler sees the pin and
	// keeps the record out of the pool, or the helper sees the seal and
	// backs off before touching any field.
	sealed atomic.Bool
	pins   atomic.Int32

	// Per-attempt scratch, reused across recycles. oldBuf/newBuf are
	// the initiating goroutine's private evaluation buffers; helpOld/helpNew
	// are the same for the one helper per attempt that claims helpClaimed
	// (arm resets it), grown lazily by that helper, and any other helper
	// allocates its own. A published buffer stays valid for as long as a
	// participant may read it, because a record with a pinned helper is
	// never re-armed (seal/pin plus limbo). boxes is the backing
	// chunk value boxes are carved from: each carved slot's address is
	// published into a memory cell at most once, ever, preserving the
	// GC-based LL/SC argument.
	addrBuf     []int
	oldBuf      []uint64
	newBuf      []uint64
	newHdr      *[]uint64 // initiator's slice-header box for newVals publication
	helpOld     []uint64
	helpNew     []uint64
	helpHdr     *[]uint64 // the claiming helper's newHdr
	helpClaimed atomic.Bool
	boxes       []uint64
	boxOff      int

	// wrBuf marks the TL2 engine's write set (wrBuf[i]: new[i] != old[i]).
	// It is private to the attempt — TL2 has no helpers — and sized lazily
	// because the ST engine never needs it.
	wrBuf []bool

	// Observability scratch (see obs.go). All fields are written only by
	// the attempt's initiating goroutine — helpers never touch them — and
	// only while an observability level is enabled, except the failure-site
	// fields (obsReason, obsAddr, obsHelped), which the cold failure paths
	// write unconditionally. evt is the record-owned Event delivered to a
	// registered Observer: reusing it is what keeps event delivery at zero
	// allocations per attempt.
	obsT0     int64       // start of a sampled attempt (monoNanos); 0 if not sampled
	obsReason AbortReason // taxonomy entry for a failed attempt
	obsAddr   int         // word the failed attempt died at
	obsWrites int         // engine-computed write-set size; -1 if unknown
	obsHelped bool        // ST: the failure path helped its blocker
	evt       Event

	shard int // stats shard, fixed at record creation
}

// recSeq spreads records across stats shards; assigned once per record
// object, so pooled reuse keeps a record on its shard.
var recSeq atomic.Uint64

// Size returns the number of words in the record's data set.
func (r *Rec) Size() int { return len(r.addrs) }

// Succeeded reports whether the record's decided status is Success.
func (r *Rec) Succeeded() bool { return r.status.Load() == statusSuccess }

// FailedIndex returns the index within the data set at which acquisition
// failed and true, or 0 and false if the record did not fail.
func (r *Rec) FailedIndex() (int, bool) {
	st := r.status.Load()
	if !isFailure(st) {
		return 0, false
	}
	return failureIndex(st), true
}

// Addrs returns the record's data-set buffer for the caller to fill between
// Begin and RunAttempt. Entries must be strictly ascending and in bounds by
// the time RunAttempt runs; the engine does not re-validate.
func (r *Rec) Addrs() []int { return r.addrs }

// Env returns the opaque payload attached to the record. The payload
// survives pool recycling, so callers that attach a scratch structure get
// it back — already quiescent — on later attempts that draw the same
// record.
func (r *Rec) Env() any { return r.env }

// SetEnv attaches an opaque payload for CalcFunc evaluation. It must only
// be called between Begin and RunAttempt (helpers read env concurrently
// once the attempt is running).
func (r *Rec) SetEnv(v any) { r.env = v }

// SetReadSet gives the attempt a read list beside its data set: addrs are
// words the attempt read, in any order — a word may also be in the data
// set, when the attempt read it and then wrote it — exp[i] is the value
// addrs[i] was read as, and sample is the CommitEpoch value sampled before
// those reads were taken (every read stably loaded after it, the epoch
// unchanged at the last). No engine owns, locks, agrees or installs a word
// for being on the list, and the calc never sees the list: the engine
// validates it against sample, the ST engine once for all participants
// (DESIGN.md §9), the TL2 engine by stamp (§11). A stale list fails the
// attempt with ConflictInfo.ReadStale set: re-attempting the same list
// would only fail again, so the caller has to read afresh. Both slices must
// have the same length and stay unchanged until RunAttempt returns; call it
// between Begin and RunAttempt.
func (r *Rec) SetReadSet(addrs []int, exp []uint64, sample uint64) {
	r.reads, r.exp, r.sample = addrs, exp, sample
}

// footprint returns how many words the attempt spans: its data set plus its
// read list, with a word on both counted twice — finding the overlap would
// cost a search per read, on every observed attempt.
func (r *Rec) footprint() int { return len(r.addrs) + len(r.reads) }

// staleRead returns the read-list index a stale verdict names and true, or
// 0 and false if the verdict is not a failure.
func (r *Rec) staleRead() (int, bool) {
	v := r.verdict.Load()
	if !isFailure(v) {
		return 0, false
	}
	return failureIndex(v), true
}

// pin registers the caller as an active helper of r. It returns false —
// and registers nothing — if the record is sealed (drained and possibly
// recycled), in which case the caller must not touch the record further.
func (r *Rec) pin() bool {
	r.pins.Add(1)
	if r.sealed.Load() {
		r.pins.Add(-1)
		return false
	}
	return true
}

// unpin deregisters a helper previously registered with pin.
func (r *Rec) unpin() { r.pins.Add(-1) }

// carveBox returns the next free value box without consuming it; commitBox
// consumes it once its address has been published by a successful cell CAS.
// A slot whose CAS lost is rewritten and retried — safe, because a losing
// CAS published nothing. Chunks are never reused: replaced chunks stay
// alive exactly as long as some memory cell still points into them.
func (r *Rec) carveBox() *uint64 {
	if r.boxOff == len(r.boxes) {
		r.boxes = make([]uint64, max(len(r.addrs), boxChunk))
		r.boxOff = 0
	}
	return &r.boxes[r.boxOff]
}

func (r *Rec) commitBox() { r.boxOff++ }

// writeSet returns the record's k-entry write-set marker buffer, growing it
// on first use (amortized to zero across pool recycles, like the value
// buffers).
func (r *Rec) writeSet(k int) []bool {
	if cap(r.wrBuf) < k {
		r.wrBuf = make([]bool, k)
	}
	return r.wrBuf[:k]
}

// snapshotInto copies the agreed old values into out. It must only be
// called once the record's status is Success and the agreement phase has
// filled every slot.
func (r *Rec) snapshotInto(out []uint64) {
	for i := range r.old {
		out[i] = *r.old[i].Load()
	}
}

// changes reports whether installing newv would change any word's value:
// some agreed old value differs from its new one. It has snapshotInto's
// precondition.
func (r *Rec) changes(newv []uint64) bool {
	for i := range r.old {
		if *r.old[i].Load() != newv[i] {
			return true
		}
	}
	return false
}
