package stmds

import (
	"context"
	"fmt"
	"sync"

	stm "github.com/stm-go/stm"
)

// Queue is a bounded transactional FIFO of T: a ring buffer whose head
// and tail are monotonic word counters and whose slots hold codec-encoded
// elements. Every operation is one atomic transaction over {head, tail,
// one slot}; Put blocks while the queue is full and Take while it is
// empty by calling DTx.Retry, so blocked callers park until the counters
// move instead of spinning. The TryX forms are built from Memory.OrElse
// and never block.
//
// A Queue is safe for concurrent use by any number of producers and
// consumers. Both Put and Take read both counters (fullness and emptiness
// are transactional facts), so the queue is a deliberate serialization
// point — see "choosing a structure" in the package docs.
type Queue[T any] struct {
	m        *stm.Memory
	c        stm.Codec[T]
	vw       int
	head     int // monotonic take counter word
	tail     int // monotonic put counter word
	slots    int // base of the slot array
	capacity uint64
	ops      sync.Pool
}

// QueueWords returns the number of Memory words a Queue with the given
// codec and capacity occupies.
func QueueWords[T any](c stm.Codec[T], capacity int) int {
	return 2 + capacity*c.Words()
}

// NewQueue lays a queue of the given capacity in m.
func NewQueue[T any](m *stm.Memory, c stm.Codec[T], capacity int) (*Queue[T], error) {
	if c == nil || c.Words() <= 0 {
		return nil, fmt.Errorf("stmds: queue codec must have positive width")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("stmds: queue capacity must be positive, got %d", capacity)
	}
	base, err := m.AllocWords(QueueWords(c, capacity))
	if err != nil {
		return nil, err
	}
	q := &Queue[T]{
		m: m, c: c, vw: c.Words(),
		head: base, tail: base + 1, slots: base + 2,
		capacity: uint64(capacity),
	}
	q.ops.New = func() any { return newQOp(q) }
	return q, nil
}

// Memory returns the Memory the queue lives in; Cap its fixed capacity.
func (q *Queue[T]) Memory() *stm.Memory { return q.m }

// Cap returns the queue's fixed capacity.
func (q *Queue[T]) Cap() int { return int(q.capacity) }

// Len returns the number of queued elements: LenTx in a transaction of its
// own, which only reads.
func (q *Queue[T]) Len() int {
	var n int
	_ = q.m.Atomically(func(tx *stm.DTx) error {
		n = q.LenTx(tx)
		return nil
	})
	return n
}

// LenTx is Len inside the caller's transaction.
func (q *Queue[T]) LenTx(tx *stm.DTx) int {
	return int(tx.Read(q.tail) - tx.Read(q.head))
}

// Put appends x, blocking while the queue is full.
func (q *Queue[T]) Put(x T) {
	op := q.getOp()
	defer q.putOp(op)
	op.stage(x)
	_ = q.m.Atomically(op.putFn)
}

// PutContext is Put with cancellation: it returns ctx's error if the
// queue stays full until ctx is done.
func (q *Queue[T]) PutContext(ctx context.Context, x T) error {
	op := q.getOp()
	defer q.putOp(op)
	op.stage(x)
	return q.m.AtomicallyContext(ctx, op.putFn)
}

// TryPut appends x if there is room, reporting whether it did. It never
// blocks: the put transaction's Retry falls through to an OrElse branch
// that observes fullness instead of waiting it out.
func (q *Queue[T]) TryPut(x T) bool {
	op := q.getOp()
	defer q.putOp(op)
	op.stage(x)
	_ = q.m.OrElse(op.putFn, op.elseFn)
	return op.ok
}

// Take removes and returns the oldest element, blocking while the queue
// is empty.
func (q *Queue[T]) Take() T {
	op := q.getOp()
	defer q.putOp(op)
	_ = q.m.Atomically(op.takeFn)
	return q.c.Decode(op.vbuf)
}

// TakeContext is Take with cancellation; the zero T accompanies a
// non-nil error.
func (q *Queue[T]) TakeContext(ctx context.Context) (T, error) {
	op := q.getOp()
	defer q.putOp(op)
	if err := q.m.AtomicallyContext(ctx, op.takeFn); err != nil {
		var zero T
		return zero, err
	}
	return q.c.Decode(op.vbuf), nil
}

// TryTake removes and returns the oldest element if there is one. Like
// TryPut it composes the blocking transaction with an OrElse fallback
// instead of waiting.
func (q *Queue[T]) TryTake() (T, bool) {
	op := q.getOp()
	defer q.putOp(op)
	_ = q.m.OrElse(op.takeFn, op.elseFn)
	if !op.ok {
		var zero T
		return zero, false
	}
	return q.c.Decode(op.vbuf), true
}

// PutTx is Put inside the caller's transaction: the append is buffered in
// tx and commits with it. On a full queue it calls tx.Retry, so under the
// caller's OrElse it falls through to their alternative, and otherwise
// the whole transaction blocks until space appears.
func (q *Queue[T]) PutTx(tx *stm.DTx, x T) {
	op := q.getOp()
	defer q.putOp(op)
	op.stage(x)
	_ = op.runPut(tx)
}

// TryPutTx is PutTx reporting fullness instead of retrying.
func (q *Queue[T]) TryPutTx(tx *stm.DTx, x T) bool {
	op := q.getOp()
	defer q.putOp(op)
	op.stage(x)
	h, t := tx.Read(q.head), tx.Read(q.tail)
	if t-h >= q.capacity {
		return false
	}
	op.install(tx, t)
	return true
}

// TakeTx is Take inside the caller's transaction; on an empty queue it
// calls tx.Retry (see PutTx).
func (q *Queue[T]) TakeTx(tx *stm.DTx) T {
	op := q.getOp()
	defer q.putOp(op)
	_ = op.runTake(tx)
	return q.c.Decode(op.vbuf)
}

// TryTakeTx is TakeTx reporting emptiness instead of retrying.
func (q *Queue[T]) TryTakeTx(tx *stm.DTx) (T, bool) {
	op := q.getOp()
	defer q.putOp(op)
	h, t := tx.Read(q.head), tx.Read(q.tail)
	if t == h {
		var zero T
		return zero, false
	}
	op.extract(tx, h)
	return q.c.Decode(op.vbuf), true
}

func (q *Queue[T]) getOp() *qOp[T] { return q.ops.Get().(*qOp[T]) }

func (q *Queue[T]) putOp(op *qOp[T]) {
	var zero T
	op.v = zero
	q.ops.Put(op)
}

// qOp is one queue operation's pooled scratch: the staged element, the
// value buffer, and the pre-bound transaction functions.
type qOp[T any] struct {
	q    *Queue[T]
	v    T
	vbuf []uint64
	ok   bool

	putFn, takeFn, elseFn func(*stm.DTx) error
}

func newQOp[T any](q *Queue[T]) *qOp[T] {
	op := &qOp[T]{q: q, vbuf: make([]uint64, q.vw)}
	op.putFn = op.runPut
	op.takeFn = op.runTake
	op.elseFn = op.runElse
	return op
}

// stage encodes x once, outside the transaction: the element is immutable
// across re-executions, so the encoded words are too.
func (op *qOp[T]) stage(x T) {
	op.v = x
	op.q.c.Encode(x, op.vbuf)
}

// install writes the staged element into tail position t and advances the
// tail.
func (op *qOp[T]) install(tx *stm.DTx, t uint64) {
	q := op.q
	slot := q.slots + int(t%q.capacity)*q.vw
	for j, w := range op.vbuf {
		tx.Write(slot+j, w)
	}
	tx.Write(q.tail, t+1)
}

// extract reads the element at head position h into vbuf and advances the
// head.
func (op *qOp[T]) extract(tx *stm.DTx, h uint64) {
	q := op.q
	slot := q.slots + int(h%q.capacity)*q.vw
	for j := range op.vbuf {
		op.vbuf[j] = tx.Read(slot + j)
	}
	tx.Write(q.head, h+1)
}

func (op *qOp[T]) runPut(tx *stm.DTx) error {
	op.ok = false
	h, t := tx.Read(op.q.head), tx.Read(op.q.tail)
	if t-h >= op.q.capacity {
		tx.Retry()
	}
	op.install(tx, t)
	op.ok = true
	return nil
}

func (op *qOp[T]) runTake(tx *stm.DTx) error {
	op.ok = false
	h, t := tx.Read(op.q.head), tx.Read(op.q.tail)
	if t == h {
		tx.Retry()
	}
	op.extract(tx, h)
	op.ok = true
	return nil
}

// runElse is the OrElse fallback of the TryX forms: the first branch
// retried (full/empty), so the operation completes as a no-op with ok
// still false.
func (op *qOp[T]) runElse(tx *stm.DTx) error { return nil }
