package stmds

import (
	"errors"
	"fmt"
	"sync"

	stm "github.com/stm-go/stm"
)

// ErrMapFull reports a Put that found no free slot and could not grow the
// table: either the Memory's word allocator is exhausted, or the put ran
// inside a caller's transaction (PutTx), which cannot allocate.
var ErrMapFull = errors.New("stmds: map table full")

// Map is a transactional hash map from K to V: an open-addressing table
// (linear probing, tombstone deletion) laid out in the words of one
// stm.Memory, with every operation an atomic transaction over the probe
// chain it touches. Disjoint keys probe disjoint slots, so operations on
// different keys run in parallel; the live-count bookkeeping is striped
// across countStripes words for the same reason.
//
// The table grows by transactional incremental resize: when occupancy
// (live entries plus tombstones) crosses 3/4, a new table is installed,
// and until the old one is drained every write — a Put or PutTx, or a
// Delete or DeleteTx that finds its key — moves migrateChunk old-table
// slots inside its own transaction (so a transaction of w writes owns w
// chunks, up to a whole table), and the active table cannot fill before
// the drain ends. Reads never migrate, so a Get stays read-only. While a
// migration is in flight a live key exists in exactly one of the two
// tables: lookups probe the active table first, then the old; writes
// install into the active table and tombstone any old-table copy in the
// same atomic step. See DESIGN.md §10.
//
// A Map is safe for concurrent use. Table words (including those of
// outgrown tables) are reserved from the Memory's allocator and never
// freed; size the Memory with MapWords plus growth headroom.
type Map[K comparable, V any] struct {
	m  *stm.Memory
	kc stm.Codec[K]
	vc stm.Codec[V] // nil: no value words (Set rides this)

	kw, vw    int
	slotWords int
	ctl       int // base of the control block (ctlWords words)

	growMu sync.Mutex // serializes table allocation, not operations
	ops    sync.Pool  // of *mapOp[K, V]
}

// Control-block layout (word offsets from Map.ctl) and slot states.
const (
	ctlAbase  = 0                // active table base
	ctlAcap   = 1                // active table capacity (slots, power of two)
	ctlObase  = 2                // old table base (during migration)
	ctlOcap   = 3                // old table capacity; 0 = no migration in flight
	ctlCursor = 4                // next old-table slot index to migrate
	ctlCnt    = 5                // countStripes live-count stripe words
	ctlTmb    = 5 + countStripes // countStripes active-tombstone stripe words
	ctlWords  = 5 + 2*countStripes

	countStripes = 8 // power of two; stripe = hash & (countStripes-1)

	// migrateChunk old-table slots move with every write while a migration
	// is in flight, so the active table provably cannot fill before the
	// migration completes (DESIGN.md §10).
	migrateChunk = 4

	slotEmpty = 0
	slotFull  = 1
	slotTomb  = 2
)

// A full slot's state word packs, from the low bits up: slotFull (2 bits),
// the key's used width and the value's used width (widthBits each), and
// the top bits of the key's hash. A used width is the encoding with its
// trailing zero words cut off; the words of a slot past its used widths
// are never read, so they are never written and may hold a former
// occupant's tail. An empty slot's state is slotEmpty and a tombstone's is
// slotTomb, both with no other bit set.
const (
	slotKindMask  = 3
	widthBits     = 16
	maxCodecWords = 1<<widthBits - 1
	kuShift       = 2
	vuShift       = kuShift + widthBits
	tagShift      = vuShift + widthBits
	vuMask        = maxCodecWords << vuShift
)

// isFull reports whether the state word st is a full slot's.
func isFull(st uint64) bool { return st&slotKindMask == slotFull }

// keyWidth and valWidth return a full slot's used key and value widths.
func keyWidth(st uint64) int { return int(st>>kuShift) & maxCodecWords }
func valWidth(st uint64) int { return int(st>>vuShift) & maxCodecWords }

// usedWords returns the used width of an encoding: its length without
// trailing zero words.
func usedWords(enc []uint64) int {
	n := len(enc)
	for n > 0 && enc[n-1] == 0 {
		n--
	}
	return n
}

// minMapCap is the smallest table; capacities are powers of two.
const minMapCap = 8

// mapCapFor returns the table capacity for a size hint: the smallest
// power of two holding hint entries below the 3/4 growth threshold.
func mapCapFor(hint int) uint64 {
	c := uint64(minMapCap)
	for hint > 0 && 4*uint64(hint) >= 3*c {
		c <<= 1
	}
	return c
}

// MapWords returns the number of Memory words a NewMap with the given
// codecs and size hint reserves up front: the control block plus the
// initial table, in one allocation, so a NewMap in a fresh Memory of
// exactly MapWords words fits. Each later growth step reserves a further table of twice
// the current capacity (the outgrown table's words are never reused), so
// a map expected to grow needs headroom beyond this figure.
func MapWords[K comparable, V any](kc stm.Codec[K], vc stm.Codec[V], sizeHint int) int {
	vw := 0
	if vc != nil {
		vw = vc.Words()
	}
	return ctlWords + int(mapCapFor(sizeHint))*(1+kc.Words()+vw)
}

// NewMap lays a map in m sized for sizeHint entries (it grows beyond the
// hint by incremental resize). Keys are hashed and stored through kc;
// values through vc. A nil vc stores no value words — every lookup
// returns the zero V — which is how Set embeds a Map without paying a
// value word per entry.
func NewMap[K comparable, V any](m *stm.Memory, kc stm.Codec[K], vc stm.Codec[V], sizeHint int) (*Map[K, V], error) {
	if kc == nil || kc.Words() <= 0 || kc.Words() > maxCodecWords {
		return nil, fmt.Errorf("stmds: map key codec width must be in 1..%d", maxCodecWords)
	}
	vw := 0
	if vc != nil {
		if vc.Words() <= 0 || vc.Words() > maxCodecWords {
			return nil, fmt.Errorf("stmds: map value codec width must be in 1..%d", maxCodecWords)
		}
		vw = vc.Words()
	}
	mp := &Map[K, V]{
		m: m, kc: kc, vc: vc,
		kw: kc.Words(), vw: vw,
		slotWords: 1 + kc.Words() + vw,
	}
	// The control block and the first table are one allocation, so a
	// Memory of MapWords words holds them with no alignment padding between.
	cap0 := mapCapFor(sizeHint)
	ctl, err := m.AllocWords(ctlWords + int(cap0)*mp.slotWords)
	if err != nil {
		return nil, err
	}
	mp.ctl = ctl
	base := ctl + ctlWords
	if err := m.WriteAll([]int{ctl + ctlAbase, ctl + ctlAcap}, []uint64{uint64(base), cap0}); err != nil {
		return nil, err
	}
	mp.ops.New = func() any { return newMapOp(mp) }
	return mp, nil
}

// Memory returns the Memory the map lives in.
func (mp *Map[K, V]) Memory() *stm.Memory { return mp.m }

// Get returns the value stored under k. It is a read-only transaction: it
// reads the table geometry and k's probe sequence and is committed there —
// no engine attempt, no word owned — so on either engine concurrent Gets
// never conflict with one another, and a Get waits for (ST: helps) a writer
// only while that writer is installing into a word the Get reads.
func (mp *Map[K, V]) Get(k K) (V, bool) {
	op := mp.getOp()
	defer mp.putOp(op)
	op.k = k
	op.encodeKey()
	_ = mp.m.Atomically(op.getFn)
	return op.prev, op.found
}

// GetTx is Get inside the caller's transaction: the lookup joins tx's
// read set, so it is consistent with everything else tx reads and writes.
func (mp *Map[K, V]) GetTx(tx *stm.DTx, k K) (V, bool) {
	op := mp.getOp()
	defer mp.putOp(op)
	op.k = k
	op.encodeKey()
	_ = op.runGet(tx)
	return op.prev, op.found
}

// Put stores v under k, returning the value it replaced (the zero V and
// false if k was absent). It grows the table as needed; the only errors
// are allocation failures (stm.ErrOutOfWords) surfaced as growth becomes
// impossible, reported as ErrMapFull once no slot can be found.
func (mp *Map[K, V]) Put(k K, v V) (prev V, replaced bool, err error) {
	op := mp.getOp()
	defer mp.putOp(op)
	op.k, op.v = k, v
	op.encodeKey()
	for tries := 0; ; tries++ {
		_ = mp.m.Atomically(op.putFn)
		if !op.needGrow {
			break
		}
		// No free slot, which the §10 bound allows only with no migration
		// in flight: grow, and retry into the new table.
		if tries >= growRetryLimit {
			return prev, false, ErrMapFull
		}
		if err := mp.grow(); err != nil {
			return prev, false, err
		}
	}
	prev, replaced = op.prev, op.found
	if mp.shouldGrow() {
		// Advisory trigger: the put itself succeeded, so an allocation
		// failure here is not this call's error — later puts surface it
		// when the table really runs out of slots.
		_ = mp.grow()
	}
	return prev, replaced, nil
}

// growRetryLimit bounds Put's grow-and-retry laps; hitting it means the
// allocator cannot deliver a bigger table and the put fails with
// ErrMapFull rather than spinning.
const growRetryLimit = 64

// PutTx is Put inside the caller's transaction. It cannot allocate (growth
// needs its own transaction), so on a table with no free slot it returns
// ErrMapFull instead of growing. That happens only when inserts fill the
// active table with no migration in flight: a workload that inserts only
// through PutTx calls Maintain between transactions to start growth, and
// a standalone Put grows a full table itself. While a migration is in
// flight, PutTx moves a chunk of it like every write. The put is buffered
// in tx and takes effect only if the whole transaction commits.
func (mp *Map[K, V]) PutTx(tx *stm.DTx, k K, v V) (prev V, replaced bool, err error) {
	op := mp.getOp()
	defer mp.putOp(op)
	op.k, op.v = k, v
	op.encodeKey()
	_ = op.runPut(tx)
	if op.needGrow {
		return prev, false, ErrMapFull
	}
	return op.prev, op.found, nil
}

// Delete removes k, returning the value it held (zero V and false if k
// was absent).
func (mp *Map[K, V]) Delete(k K) (V, bool) {
	op := mp.getOp()
	defer mp.putOp(op)
	op.k = k
	op.encodeKey()
	_ = mp.m.Atomically(op.delFn)
	return op.prev, op.found
}

// DeleteTx is Delete inside the caller's transaction.
func (mp *Map[K, V]) DeleteTx(tx *stm.DTx, k K) (V, bool) {
	op := mp.getOp()
	defer mp.putOp(op)
	op.k = k
	op.encodeKey()
	_ = op.runDel(tx)
	return op.prev, op.found
}

// Maintain starts a resize, outside any caller transaction, when occupancy
// has crossed the growth threshold. Put does this itself; a workload that
// inserts only through PutTx, which cannot allocate, must call Maintain
// from non-transactional code, or PutTx eventually returns ErrMapFull with
// the allocator full of free words. The resize it starts needs no further
// help: every write drains a chunk of it. One call after every batch of Tx
// mutations is plenty; when there is nothing to do, Maintain costs a few
// atomic loads and no allocation. The only errors are allocation failures
// (stm.ErrOutOfWords), and they are advisory here — a later call retries.
func (mp *Map[K, V]) Maintain() error {
	if mp.shouldGrow() {
		return mp.grow()
	}
	return nil
}

// Len returns the number of live entries: LenTx in a transaction of its
// own, which only reads.
func (mp *Map[K, V]) Len() int {
	var n int
	_ = mp.m.Atomically(func(tx *stm.DTx) error {
		n = mp.LenTx(tx)
		return nil
	})
	return n
}

// LenTx is Len inside the caller's transaction. Note that it reads every
// count stripe, so it conflicts with all concurrent mutations; prefer it
// for coordination points, not hot paths.
func (mp *Map[K, V]) LenTx(tx *stm.DTx) int {
	var n uint64
	for i := 0; i < countStripes; i++ {
		n += tx.Read(mp.ctl + ctlCnt + i)
	}
	return int(n)
}

// RangeTx iterates every live entry inside the caller's transaction,
// calling yield for each until it returns false. The snapshot is atomic:
// the whole table joins tx's read set, so the entries yielded are exactly
// the map's content at the transaction's serialization point — this is
// what the invariant checkers in the simulation package sum over.
//
// Atomicity here is bought with footprint: RangeTx reads the state word of
// every slot (active and, mid-migration, old table) and the used words of
// every entry, so it conflicts with every concurrent mutation — any one of
// them landing before the commit sends the whole iteration back to
// re-execute. On both engines the words it read ride the commit as a read
// list that is validated, not owned; the commit owns only what tx wrote.
// An execution nothing overlaps costs O(slots); each concurrent commit, to
// this map or any other word of the Memory, adds one re-check of the words
// read so far (counted in Stats().SnapshotRechecked). So the limit on a
// ranged map is how often it is written, not how large it is: range over
// maps that are quiet for the time an iteration takes, or take the
// iteration out of hot paths; for a cheap conflict-free cardinality check
// use LenTx. Entries are yielded in table order, which is not insertion or
// key order. yield must follow the same rules as any code inside
// Atomically (no side effects — it may run on snapshots that never
// commit). yield may mutate the map through the Tx forms, but the
// iteration does not re-visit slots it has passed, and mid-resize each
// such write moves old-table entries into active slots already passed,
// so entries not yet visited can be skipped: to write every entry,
// collect the keys in the range and write after it.
func (mp *Map[K, V]) RangeTx(tx *stm.DTx, yield func(k K, v V) bool) {
	op := mp.getOp()
	defer mp.putOp(op)
	abase, acap, obase, ocap := op.readCtl(tx)
	if !op.rangeTable(tx, abase, acap, yield) {
		return
	}
	if ocap != 0 {
		// A live key exists in exactly one table mid-migration (writes
		// tombstone the old copy in the same commit that installs the new),
		// so scanning both tables never yields a key twice.
		op.rangeTable(tx, obase, ocap, yield)
	}
}

// rangeTable yields the live entries of one table; false means yield
// stopped the iteration.
func (op *mapOp[K, V]) rangeTable(tx *stm.DTx, base int, tcap uint64, yield func(k K, v V) bool) bool {
	mp := op.mp
	for i := uint64(0); i < tcap; i++ {
		a := base + int(i)*mp.slotWords
		st := tx.Read(a)
		if !isFull(st) {
			continue
		}
		op.loadKey(tx, a, st)
		clear(op.kbuf[op.ku:])
		op.loadVal(tx, a, st)
		if !yield(mp.kc.Decode(op.kbuf), op.prev) {
			return false
		}
	}
	return true
}

// getOp draws pooled operation scratch; putOp recycles it, dropping the
// key/value references so an idle op retains nothing of its last caller.
func (mp *Map[K, V]) getOp() *mapOp[K, V] { return mp.ops.Get().(*mapOp[K, V]) }

func (mp *Map[K, V]) putOp(op *mapOp[K, V]) {
	var zk K
	var zv V
	op.k, op.v, op.prev = zk, zv, zv
	mp.ops.Put(op)
}

// shouldGrow estimates (from unvalidated Peeks — the trigger is advisory)
// whether active-table occupancy has crossed the 3/4 threshold.
func (mp *Map[K, V]) shouldGrow() bool {
	if mp.m.Peek(mp.ctl+ctlOcap) != 0 {
		return false // migration already in flight
	}
	acap := mp.m.Peek(mp.ctl + ctlAcap)
	var occ uint64
	for i := 0; i < countStripes; i++ {
		occ += mp.m.Peek(mp.ctl+ctlCnt+i) + mp.m.Peek(mp.ctl+ctlTmb+i)
	}
	return 4*(occ+1) >= 3*acap
}

// grow allocates the next table and installs it as active in one small
// transaction, leaving the old table to be drained by the writes that
// follow (migrate). The mutex serializes allocation (so racing triggers
// cannot both reserve tables); the in-transaction re-check makes the flip
// itself safe regardless. A doubling is chosen while live load justifies
// it; otherwise the table is rebuilt at the same capacity, which sheds
// tombstones. A migration in flight is already the growth step, so grow
// then does nothing.
func (mp *Map[K, V]) grow() error {
	mp.growMu.Lock()
	defer mp.growMu.Unlock()
	ctl := mp.ctl
	if mp.m.Peek(ctl+ctlOcap) != 0 {
		return nil
	}
	acap := mp.m.Peek(ctl + ctlAcap)
	var live uint64
	for i := 0; i < countStripes; i++ {
		live += mp.m.Peek(ctl + ctlCnt + i)
	}
	newCap := acap
	if 2*live >= acap {
		newCap = acap * 2
	}
	base, err := mp.m.AllocWords(int(newCap) * mp.slotWords)
	if err != nil {
		return err
	}
	return mp.m.Atomically(func(tx *stm.DTx) error {
		if tx.Read(ctl+ctlOcap) != 0 || tx.Read(ctl+ctlAcap) != acap {
			return nil // someone else already flipped; the words are wasted
		}
		if newCap == acap {
			// A same-capacity rebuild is safe only while fewer than half
			// the slots are live (§10): re-check the count the Peeks saw.
			live = 0
			for i := 0; i < countStripes; i++ {
				live += tx.Read(ctl + ctlCnt + i)
			}
			if 2*live >= acap {
				return nil // inserts raced the Peeks; a later trigger doubles
			}
		}
		tx.Write(ctl+ctlObase, tx.Read(ctl+ctlAbase))
		tx.Write(ctl+ctlOcap, acap)
		tx.Write(ctl+ctlCursor, 0)
		tx.Write(ctl+ctlAbase, uint64(base))
		tx.Write(ctl+ctlAcap, newCap)
		for i := 0; i < countStripes; i++ {
			tx.Write(ctl+ctlTmb+i, 0) // tombstones die with the old table
		}
		return nil
	})
}

// mapOp is one operation's scratch: buffers, parameters, results, and the
// pre-bound transaction functions, pooled per map so stable-shape
// operations allocate nothing.
type mapOp[K comparable, V any] struct {
	mp   *Map[K, V]
	kbuf []uint64 // encoded op key
	vbuf []uint64 // value staging

	k        K
	v        V
	ku       int    // used width of kbuf
	hash     uint64 // of kbuf[:ku]
	keyState uint64 // a full slot's state word for this key, value width 0

	prev     V
	found    bool
	needGrow bool

	mig *mapOp[K, V] // migrate's key staging, built on first use

	getFn, putFn, delFn func(*stm.DTx) error
}

func newMapOp[K comparable, V any](mp *Map[K, V]) *mapOp[K, V] {
	op := &mapOp[K, V]{
		mp:   mp,
		kbuf: make([]uint64, mp.kw),
		vbuf: make([]uint64, mp.vw),
	}
	op.getFn = op.runGet
	op.putFn = op.runPut
	op.delFn = op.runDel
	return op
}

// encodeKey stages op.k's words and hash; called once per operation,
// outside the transaction (the key is immutable across re-executions).
func (op *mapOp[K, V]) encodeKey() {
	op.mp.kc.Encode(op.k, op.kbuf)
	op.stageKey(usedWords(op.kbuf))
}

// stageKey derives the hash and state of the key whose used words are
// kbuf[:ku]. Trailing zero words do not enter the hash, so it is a
// function of the encoding however wide the codec is.
func (op *mapOp[K, V]) stageKey(ku int) {
	op.ku = ku
	op.hash = hashWords(op.kbuf[:ku])
	op.keyState = slotFull | uint64(ku)<<kuShift | op.hash>>tagShift<<tagShift
}

// loadKey stages the key of the full slot at a, whose state word is st:
// its used words into kbuf (the tail past them keeps whatever it held),
// then its hash and state.
func (op *mapOp[K, V]) loadKey(tx *stm.DTx, a int, st uint64) {
	ku := keyWidth(st)
	for j := 0; j < ku; j++ {
		op.kbuf[j] = tx.Read(a + 1 + j)
	}
	op.stageKey(ku)
}

// readCtl reads the table geometry into the transaction's read set. The
// cursor and count words are deliberately not read here: operations that
// don't need them must not conflict on them.
func (op *mapOp[K, V]) readCtl(tx *stm.DTx) (abase int, acap uint64, obase int, ocap uint64) {
	ctl := op.mp.ctl
	abase = int(tx.Read(ctl + ctlAbase))
	acap = tx.Read(ctl + ctlAcap)
	ocap = tx.Read(ctl + ctlOcap)
	if ocap != 0 {
		obase = int(tx.Read(ctl + ctlObase))
	}
	return
}

// probe walks the staged key's chain (op.kbuf/op.hash) in the table at
// base/tcap. It returns the matching slot's address (-1 if absent) with
// its state word, and the address where an insert of the key belongs (the
// first tombstone of the chain, else the terminating empty slot; -1 if the
// chain covers the whole table) with that slot's state, slotTomb or
// slotEmpty. A full slot whose state disagrees with the key's width or
// hash tag is passed on its state word alone; only a candidate's used key
// words are read.
func (op *mapOp[K, V]) probe(tx *stm.DTx, base int, tcap uint64) (foundAddr int, foundSt uint64, availAddr int, availSt uint64) {
	mp := op.mp
	mask := tcap - 1
	idx := op.hash & mask
	firstTomb := -1
	for n := uint64(0); n < tcap; n++ {
		a := base + int(idx)*mp.slotWords
		switch st := tx.Read(a); {
		case st == slotEmpty:
			if firstTomb >= 0 {
				return -1, 0, firstTomb, slotTomb
			}
			return -1, 0, a, slotEmpty
		case st == slotTomb:
			if firstTomb < 0 {
				firstTomb = a
			}
		case st&^vuMask == op.keyState:
			// Keys match iff their encoded words match — the same
			// transactional-truth convention as Var.CompareAndSwap, and
			// the only definition consistent with hashing the encoding
			// (a canonicalizing codec or a NaN float key would otherwise
			// hash equal but compare unequal and duplicate).
			match := true
			for j := 0; j < op.ku; j++ {
				if tx.Read(a+1+j) != op.kbuf[j] {
					match = false
					break
				}
			}
			if match {
				return a, st, -1, 0
			}
		}
		idx = (idx + 1) & mask
	}
	if firstTomb >= 0 {
		return -1, 0, firstTomb, slotTomb
	}
	return -1, 0, -1, 0
}

// loadVal decodes the value of the full slot at a, whose state word is
// st, into op.prev: its used words, then zeros for the rest of the codec
// width.
func (op *mapOp[K, V]) loadVal(tx *stm.DTx, a int, st uint64) {
	mp := op.mp
	if mp.vc == nil {
		return
	}
	vu := valWidth(st)
	for j := 0; j < vu; j++ {
		op.vbuf[j] = tx.Read(a + 1 + mp.kw + j)
	}
	clear(op.vbuf[vu:])
	op.prev = mp.vc.Decode(op.vbuf)
}

// store puts op.v under the staged key into the slot at a, whose state
// word is st: a slot found holding the key, or an insert slot (st is
// slotEmpty or slotTomb), which also takes the key's used words. Only the
// value's used words are written, and the state word only when it
// changes.
func (op *mapOp[K, V]) store(tx *stm.DTx, a int, st uint64) {
	mp := op.mp
	vu := 0
	if mp.vc != nil {
		mp.vc.Encode(op.v, op.vbuf)
		vu = usedWords(op.vbuf)
	}
	if nst := op.keyState | uint64(vu)<<vuShift; nst != st {
		tx.Write(a, nst)
	}
	if !isFull(st) {
		for j := 0; j < op.ku; j++ {
			tx.Write(a+1+j, op.kbuf[j])
		}
	}
	for j := 0; j < vu; j++ {
		tx.Write(a+1+mp.kw+j, op.vbuf[j])
	}
}

// moveSlot copies the full slot at src, whose state word is st and whose
// key words are staged in kbuf, into the free slot at dst and tombstones
// src: the state word and the used key and value words.
func (op *mapOp[K, V]) moveSlot(tx *stm.DTx, dst, src int, st uint64) {
	mp := op.mp
	tx.Write(dst, st)
	for j := 0; j < op.ku; j++ {
		tx.Write(dst+1+j, op.kbuf[j])
	}
	for j, vu := 0, valWidth(st); j < vu; j++ {
		tx.Write(dst+1+mp.kw+j, tx.Read(src+1+mp.kw+j))
	}
	tx.Write(src, slotTomb)
}

// bumpStripe adds delta (two's complement for decrements) to op.k's
// stripe of the counter array at ctl offset off.
func (op *mapOp[K, V]) bumpStripe(tx *stm.DTx, off int, delta uint64) {
	a := op.mp.ctl + off + int(op.hash&(countStripes-1))
	tx.Write(a, tx.Read(a)+delta)
}

// runGet: probe active, then (during migration) the old table. A live key
// exists in exactly one table, so the first hit wins.
func (op *mapOp[K, V]) runGet(tx *stm.DTx) error {
	op.found = false
	var zero V
	op.prev = zero
	abase, acap, obase, ocap := op.readCtl(tx)
	if fa, st, _, _ := op.probe(tx, abase, acap); fa >= 0 {
		op.loadVal(tx, fa, st)
		op.found = true
		return nil
	}
	if ocap != 0 {
		if fa, st, _, _ := op.probe(tx, obase, ocap); fa >= 0 {
			op.loadVal(tx, fa, st)
			op.found = true
		}
	}
	return nil
}

// runPut: move a chunk of any in-flight migration, then overwrite in the
// active table if present there; otherwise install into the active table —
// tombstoning any unmigrated old-table copy in the same atomic step, so a
// key is never live in both tables.
func (op *mapOp[K, V]) runPut(tx *stm.DTx) error {
	op.found = false
	op.needGrow = false
	var zero V
	op.prev = zero
	abase, acap, obase, ocap := op.readCtl(tx)
	if ocap != 0 {
		ocap = op.migrate(tx, abase, acap, obase, ocap)
	}
	fa, st, avail, availSt := op.probe(tx, abase, acap)
	if fa >= 0 {
		op.loadVal(tx, fa, st)
		op.store(tx, fa, st)
		op.found = true
		return nil
	}
	if avail < 0 {
		// No insert slot: report before touching the key, so the old
		// table's copy (if any) stays live for the post-growth retry.
		op.needGrow = true
		return nil
	}
	if ocap != 0 {
		if ofa, ost, _, _ := op.probe(tx, obase, ocap); ofa >= 0 {
			op.loadVal(tx, ofa, ost)
			op.found = true
			tx.Write(ofa, slotTomb) // the live copy moves to the active table
		}
	}
	op.store(tx, avail, availSt)
	if availSt == slotTomb {
		op.bumpStripe(tx, ctlTmb, ^uint64(0)) // reused a tombstone
	}
	if !op.found {
		op.bumpStripe(tx, ctlCnt, 1)
	}
	return nil
}

// runDel: tombstone the live copy, wherever it is; a delete that found its
// key is a write, so it then moves a chunk of any in-flight migration.
func (op *mapOp[K, V]) runDel(tx *stm.DTx) error {
	op.found = false
	var zero V
	op.prev = zero
	abase, acap, obase, ocap := op.readCtl(tx)
	fa, st, _, _ := op.probe(tx, abase, acap)
	if fa >= 0 {
		op.bumpStripe(tx, ctlTmb, 1)
	} else if ocap != 0 {
		// Old-table tombstones don't feed the active-occupancy trigger.
		fa, st, _, _ = op.probe(tx, obase, ocap)
	}
	if fa < 0 {
		return nil
	}
	op.loadVal(tx, fa, st)
	tx.Write(fa, slotTomb)
	op.bumpStripe(tx, ctlCnt, ^uint64(0))
	op.found = true
	if ocap != 0 {
		op.migrate(tx, abase, acap, obase, ocap)
	}
	return nil
}

// migrate moves one chunk of old-table slots into the active table and
// advances the cursor, inside the writing operation's transaction; the
// chunk that ends the old table also retires it. It returns the old
// capacity as it leaves it: 0 once retired, else ocap. The moving keys
// are staged in op.mig, so op's own staged key survives for its probe and
// for a re-execution. Live entries keep their count (migration moves
// them, it doesn't create or destroy), so no live stripe changes here.
func (op *mapOp[K, V]) migrate(tx *stm.DTx, abase int, acap uint64, obase int, ocap uint64) uint64 {
	mp := op.mp
	if op.mig == nil {
		op.mig = &mapOp[K, V]{mp: mp, kbuf: make([]uint64, mp.kw)}
	}
	mig := op.mig
	ctl := mp.ctl
	cur := tx.Read(ctl + ctlCursor)
	end := min(cur+migrateChunk, ocap)
	for i := cur; i < end; i++ {
		a := obase + int(i)*mp.slotWords
		st := tx.Read(a)
		if !isFull(st) {
			continue
		}
		mig.loadKey(tx, a, st)
		fa, _, avail, availSt := mig.probe(tx, abase, acap)
		if fa >= 0 {
			tx.Write(a, slotTomb)
			continue
		}
		if avail < 0 {
			// No slot for this chain: park the cursor here. Unreachable
			// under the §10 occupancy bound, but never silently drop an
			// entry.
			tx.Write(ctl+ctlCursor, i)
			return ocap
		}
		mig.moveSlot(tx, avail, a, st)
		if availSt == slotTomb {
			mig.bumpStripe(tx, ctlTmb, ^uint64(0))
		}
	}
	if end < ocap {
		tx.Write(ctl+ctlCursor, end)
		return ocap
	}
	tx.Write(ctl+ctlObase, 0)
	tx.Write(ctl+ctlOcap, 0)
	tx.Write(ctl+ctlCursor, 0)
	return 0
}
