package stm

import (
	"errors"
	"fmt"
)

// ErrMemoryMismatch reports a ReadVar or WriteVar of a variable that lives
// in another Memory than the transaction's: a transaction runs over one
// word vector.
var ErrMemoryMismatch = errors.New("stm: variables belong to different Memories")

// Var is a named, typed transactional variable: a Codec-encoded value
// occupying a fixed contiguous word range of one Memory. The handle itself
// is immutable and safe for concurrent use; the value it names is mutated
// only through transactions (Store, Update, CompareAndSwap, WriteVar inside
// Atomically), so concurrent access is as safe as the underlying protocol.
//
// A Var compiles away. Store and Update are static transactions over the
// var's words, on the same pooled engine hot path as the raw API; Load and
// CompareAndSwap are small Atomically calls; inside any dynamic
// transaction, ReadVar and WriteVar make the var's words part of its
// footprint.
type Var[T any] struct {
	m     *Memory
	c     Codec[T]
	addrs []int // contiguous ascending [base, base+words)
}

// Alloc reserves words for one value of codec c from m's word allocator
// and returns the typed variable naming them. Variables live as long as
// their Memory — the allocator never frees — matching the paper's static
// model where the transactional data vector is laid out up front.
func Alloc[T any](m *Memory, c Codec[T]) (*Var[T], error) {
	n := c.Words()
	if n <= 0 {
		return nil, fmt.Errorf("stm: codec words must be positive, got %d", n)
	}
	base, err := m.AllocWords(n)
	if err != nil {
		return nil, err
	}
	return VarAt(m, c, base)
}

// VarAt binds a typed variable to an explicit word range [base,
// base+c.Words()) without consulting the allocator: the engine-level
// escape hatch for overlaying typed access on words addressed directly
// elsewhere. The caller is responsible for keeping hand-placed ranges and
// Alloc'd ranges disjoint.
func VarAt[T any](m *Memory, c Codec[T], base int) (*Var[T], error) {
	n := c.Words()
	if n <= 0 {
		return nil, fmt.Errorf("stm: codec words must be positive, got %d", n)
	}
	if base < 0 || base+n > m.Size() {
		return nil, fmt.Errorf("%w: var needs words [%d,%d), size %d", ErrAddrRange, base, base+n, m.Size())
	}
	addrs := make([]int, n)
	for i := range addrs {
		addrs[i] = base + i
	}
	return &Var[T]{m: m, c: c, addrs: addrs}, nil
}

// Base returns the address of the variable's first word; Words returns how
// many words it spans. Together they locate the var for raw-API interop.
func (v *Var[T]) Base() int { return v.addrs[0] }

// Words returns the number of engine words the variable occupies.
func (v *Var[T]) Words() int { return len(v.addrs) }

// Codec returns the variable's codec.
func (v *Var[T]) Codec() Codec[T] { return v.c }

// Load returns the variable's value from a consistent snapshot of its
// words (one read-only transaction, which makes no engine attempt; for
// multi-word vars no torn read is possible). Allocation-free (amortized),
// modulo what the codec's Decode allocates.
func (v *Var[T]) Load() T {
	var x T
	_ = v.m.Atomically(func(tx *DTx) error {
		x = ReadVar(tx, v)
		return nil
	})
	return x
}

// Store atomically replaces the variable's value. Allocation-free
// (amortized).
func (v *Var[T]) Store(x T) {
	p := v.m.getWordBuf(len(v.addrs))
	v.c.Encode(x, *p)
	v.m.run(&staged{op: opStore, addrs: v.addrs, repl: *p}, nil)
	v.m.putWordBuf(p)
}

// ReadVar reads v's value inside the dynamic transaction tx: the typed
// form of DTx.Read over the variable's word range, recording every word in
// the transaction's read set. Like all dynamic reads it is repeatable,
// observes the transaction's own WriteVar, and is consistent with every
// other read the transaction has made. The variable must belong to the
// transaction's Memory.
func ReadVar[T any](tx *DTx, v *Var[T]) T {
	tx.check()
	if v.m != tx.m {
		tx.abort(fmt.Errorf("%w: var at word %d", ErrMemoryMismatch, v.Base()))
	}
	buf := tx.varBuf(len(v.addrs))
	for i, a := range v.addrs {
		buf[i] = tx.Read(a)
	}
	return v.c.Decode(buf)
}

// WriteVar buffers x as v's new value inside the dynamic transaction tx:
// the typed form of DTx.Write. The write is installed only if the whole
// transaction commits. Codecs used inside dynamic transactions must not
// touch the DTx themselves.
func WriteVar[T any](tx *DTx, v *Var[T], x T) {
	tx.check()
	if v.m != tx.m {
		tx.abort(fmt.Errorf("%w: var at word %d", ErrMemoryMismatch, v.Base()))
	}
	buf := tx.varBuf(len(v.addrs))
	v.c.Encode(x, buf)
	for i, a := range v.addrs {
		tx.Write(a, buf[i])
	}
}

// CompareAndSwap atomically replaces the variable's value with new if its
// current value equals old, reporting whether the replacement happened.
// Equality is decided on the codec's encoded words — the transactional
// truth — so values the codec canonicalizes compare in canonical form
// (an over-long string matches its truncation) and a NaN float matches
// the same NaN bit pattern even though Go's == would say false.
//
// It is Atomically comparing the var's words with old's and, only if all
// match, writing new: a comparison that fails is a read-only commit, with
// no engine attempt. It is allocation-free (amortized), so simple typed
// CAS loops need no Update closure.
func (v *Var[T]) CompareAndSwap(old, new T) bool {
	p := v.m.getWordBuf(len(v.addrs))
	v.c.Encode(old, *p)
	var ok bool
	_ = v.m.Atomically(func(tx *DTx) error {
		ok = false
		for i, a := range v.addrs {
			if tx.Read(a) != (*p)[i] {
				return nil
			}
		}
		WriteVar(tx, v, new)
		ok = true
		return nil
	})
	v.m.putWordBuf(p)
	return ok
}

// Update atomically applies f to the variable — a one-variable typed
// read-modify-write — and returns the old value the new one was computed
// from. f must be deterministic and side-effect free: under helping it may
// be evaluated several times, concurrently, and every evaluation must
// agree. A nil f panics before the transaction starts.
//
// Update stays a static transaction over the var's own words, at the cost
// of one allocation for its per-call closure; a read-modify-write that
// must also touch other variables belongs in Atomically, where a stable
// footprint is allocation-free.
func (v *Var[T]) Update(f func(T) T) T {
	if f == nil {
		panic(ErrNilUpdate)
	}
	p := v.m.getWordBuf(len(v.addrs))
	u := UpdateInto(func(old, new []uint64) {
		v.c.Encode(f(v.c.Decode(old)), new)
	})
	v.m.run(&staged{op: opUpdate, addrs: v.addrs, u: &u}, *p)
	x := v.c.Decode(*p)
	v.m.putWordBuf(p)
	return x
}
