package core

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOutOfWords reports a word allocation that does not fit in the memory.
var ErrOutOfWords = errors.New("core: word allocator exhausted")

// allocAlignCap bounds allocation alignment. An n-word allocation is
// aligned to the next power of two ≥ n, capped here, so a multi-word
// variable never straddles more naturally-aligned word groups than its size
// requires. With the current one-word-per-cache-line layout (memory.go) any
// placement already gives each word its own line; the alignment keeps the
// guarantee if the layout is ever packed to words-per-line.
const allocAlignCap = 8

// Allocator hands out contiguous, non-overlapping word ranges from a
// fixed-size memory by bump-pointer. It never frees: transactional
// variables are expected to live as long as their Memory, matching the
// paper's static model where the data vector is laid out up front. Safe for
// concurrent use.
type Allocator struct {
	mu   sync.Mutex
	size int
	next int
}

// NewAllocator returns an allocator over word addresses [0, size).
func NewAllocator(size int) *Allocator {
	return &Allocator{size: size}
}

// Alloc reserves n contiguous words and returns the base address of the
// range. The base is aligned to the next power of two ≥ n (capped at
// allocAlignCap); the words skipped for alignment are wasted, never reused.
func (a *Allocator) Alloc(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("core: allocation size must be positive, got %d", n)
	}
	align := 1
	for align < n && align < allocAlignCap {
		align <<= 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	base := (a.next + align - 1) &^ (align - 1)
	if base+n > a.size || base+n < 0 {
		return 0, fmt.Errorf("%w: need %d words at %d, size %d", ErrOutOfWords, n, base, a.size)
	}
	a.next = base + n
	return base, nil
}

// Allocated returns the high-water mark: the number of words at or below
// which every allocation (including alignment padding) lives.
func (a *Allocator) Allocated() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// Remaining returns the number of words still available past the high-water
// mark (an n-word Alloc may still fail for n ≤ Remaining() when alignment
// padding is needed).
func (a *Allocator) Remaining() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size - a.next
}
