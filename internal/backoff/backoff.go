// Package backoff is the wait between the stm package's retries: capped
// exponential backoff with per-operation jitter. An Exp is a value, ready
// at its zero value, so the retry loop that owns it keeps it on its stack
// and waiting allocates nothing.
package backoff

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/stm-go/stm/internal/xrand"
)

// Min and Max bound the sleeps of every retry in the stm package, after a
// conflict and in a DTx.Retry's condition wait alike: the first sleep is
// about Min, each later one doubles, up to Max.
const (
	Min = 500 * time.Nanosecond
	Max = 100 * time.Microsecond
)

// spins is how many Waits of an Exp yield the processor once before it
// starts to sleep.
const spins = 8

// Exp is a capped exponential backoff. The zero value is ready to use. An
// Exp belongs to one goroutine; each operation declares its own.
type Exp struct {
	waits int           // Waits so far
	cur   time.Duration // the next sleep's mean; 0 until the first sleep
	rng   xrand.RNG     // the jitter stream, seeded by the first Wait
}

// seedSeq hands each Exp's first Wait a distinct jitter seed: concurrent
// operations never share a stream, because splitmix64 mixes adjacent seeds
// into unrelated ones.
var seedSeq atomic.Uint64

// Wait blocks for the current backoff interval and then doubles it. The
// first eight waits each yield the processor once (runtime.Gosched), so
// the goroutine holding the conflicted word can run, which wins on short
// conflicts; after them each sleep lasts the interval with ±50% jitter,
// starting at Min and saturating at Max.
func (b *Exp) Wait() {
	if b.waits == 0 {
		b.rng = *xrand.New(seedSeq.Add(1))
	}
	b.waits++
	if b.waits <= spins {
		runtime.Gosched()
		return
	}
	if b.cur == 0 {
		b.cur = Min
	}
	time.Sleep(b.cur/2 + time.Duration(b.rng.Int63n(int64(b.cur))))
	b.cur = min(2*b.cur, Max)
}
