// Package backoff provides capped exponential backoff with deterministic
// per-goroutine jitter, used by the stm package's retry waits. It is
// allocation-free after construction.
package backoff

import (
	"sync/atomic"
	"time"

	"github.com/stm-go/stm/internal/xrand"
)

// Min and Max are the wait bounds of every retry in the stm package: the
// default contention policy's backoff after a conflict and a DTx.Retry's
// condition wait both start at Min and double to at most Max.
const (
	Min = 500 * time.Nanosecond
	Max = 100 * time.Microsecond
)

// Exp is a capped exponential backoff. The zero value is invalid; use New.
// Exp is not safe for concurrent use — each goroutine owns its own.
type Exp struct {
	cur   time.Duration
	min   time.Duration
	max   time.Duration
	rng   xrand.RNG // the jitter stream, held by value: New allocates only the Exp
	spins int
}

// New returns a backoff that starts at min and doubles to at most max.
// seed decorrelates concurrent goroutines; any value is fine.
func New(min, max time.Duration, seed uint64) *Exp {
	if min <= 0 {
		min = time.Microsecond
	}
	if max < min {
		max = min
	}
	return &Exp{cur: min, min: min, max: max, rng: *xrand.New(seed), spins: 8}
}

// seedSeq feeds NewSeeded one distinct seed per call.
var seedSeq atomic.Uint64

// NewSeeded is New(Min, Max, seed) with a process-wide distinct seed: each
// call —
// including fully concurrent calls — takes the next value of one atomic
// counter, so goroutines that construct their backoff at the same instant
// never share a jitter stream (splitmix64 mixes adjacent seeds into
// unrelated streams). Prefer this over hand-rolling seeds from time or
// goroutine-local state.
func NewSeeded() *Exp {
	return New(Min, Max, seedSeq.Add(1))
}

// Wait blocks for the current backoff interval (with ±50% jitter) and then
// doubles it, saturating at the configured maximum. The first few waits are
// busy spins, which wins on short conflicts.
func (b *Exp) Wait() {
	if b.spins > 0 {
		b.spins--
		for i := 0; i < 64; i++ {
			_ = i
		}
		return
	}
	jitter := time.Duration(b.rng.Int63n(int64(b.cur)))
	time.Sleep(b.cur/2 + jitter)
	if b.cur < b.max {
		b.cur *= 2
		if b.cur > b.max {
			b.cur = b.max
		}
	}
}

// Reset returns the backoff to its initial interval. Call after a success.
func (b *Exp) Reset() {
	b.cur = b.min
	b.spins = 8
}
