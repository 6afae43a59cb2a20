package stm

import (
	"sync"

	"github.com/stm-go/stm/internal/core"
)

// Validation errors. These alias the engine's sentinels so errors.Is works
// across the API boundary.
var (
	ErrAddrRange    = core.ErrAddrRange
	ErrEmptyDataSet = core.ErrEmptyDataSet

	// ErrNilUpdate is the value RunInto, TryInto and Var.Update panic with
	// when given a nil update function.
	ErrNilUpdate = core.ErrNilUpdate

	// ErrAddrOrder reports a data set that is not in ascending order.
	ErrAddrOrder = core.ErrAddrOrder

	// ErrDupAddr reports a data set containing the same address twice.
	ErrDupAddr = core.ErrDupAddr

	// ErrOutOfWords reports that Alloc/AllocWords cannot fit the request
	// in the Memory's word vector.
	ErrOutOfWords = core.ErrOutOfWords
)

// Memory is a software transactional memory: a fixed-size vector of uint64
// words supporting static multi-word transactions. All methods are safe for
// concurrent use by any number of goroutines.
type Memory struct {
	eng *core.Memory

	// alloc hands out word ranges for typed variables (Alloc, AllocWords).
	// It bump-allocates from address 0; programs that address words
	// directly alongside typed variables should reserve their raw region
	// first with AllocWords.
	alloc *core.Allocator

	bufPool sync.Pool // of *[]uint64 word staging buffers; see hotpath.go
	dtxPool sync.Pool // of *DTx dynamic-transaction handles; see dtx.go
}

// Option configures a Memory at construction.
type Option func(*config)

type config struct {
	engine Engine
	obs    *core.ObsConfig
}

// New returns a Memory of size words, all zero, configured by opts.
func New(size int, opts ...Option) (*Memory, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	eng, err := core.NewMemoryEngine(size, cfg.engine)
	if err != nil {
		return nil, err
	}
	if cfg.obs != nil {
		eng.Observe(*cfg.obs)
	}
	return &Memory{
		eng:   eng,
		alloc: core.NewAllocator(size),
	}, nil
}

// AllocWords reserves n contiguous words from the Memory's word allocator
// and returns the base address. This is the engine-level form of Alloc: use
// it to carve a raw region that coexists with typed variables (the
// allocator hands out each word at most once). Allocations are aligned and
// never freed; see internal/core's Allocator.
func (m *Memory) AllocWords(n int) (int, error) {
	return m.alloc.Alloc(n)
}

// WordsAllocated returns the allocator's high-water mark: how many words of
// the Memory have been handed to Alloc/AllocWords callers (including
// alignment padding).
func (m *Memory) WordsAllocated() int { return m.alloc.Allocated() }

// Size returns the number of words.
func (m *Memory) Size() int { return m.eng.Size() }

// Peek reads one word without transactional protection: an atomic read of
// that word with no cross-word consistency guarantee. Use ReadAllInto for a
// consistent multi-word snapshot.
func (m *Memory) Peek(loc int) uint64 { return m.eng.Peek(loc) }

// Stats returns a snapshot of the Memory's counters: the protocol counters
// (attempts, commits, failures, and — on the ST engine only — helps),
// plus, when observability is enabled (see Observe), the per-engine abort
// taxonomy, TL2 telemetry, and latency/set-size histograms. Counter
// semantics are per engine and documented on StatsSnapshot, as is the
// torn-window contract: the snapshot is not an atomic cut across shards.
func (m *Memory) Stats() core.StatsSnapshot { return m.eng.Stats() }

// ResetStats zeroes every counter Stats reports — protocol counters,
// abort-taxonomy and TL2 telemetry counters, histogram bins, and the
// per-word conflict counters — opening a fresh observation window. It is
// safe to call while transactions run: the counters are advisory, and a
// bump racing the reset lands in either window. Benchmark sweeps use it to
// read rates per window instead of monotonic totals.
func (m *Memory) ResetStats() { m.eng.ResetStats() }

// ConflictCount returns the number of failed attempts that died at loc (an
// ownership or commit-lock conflict, or a failed read validation, depending
// on the engine) since construction or the last ResetStats. A hot word is
// one whose count grows fastest.
func (m *Memory) ConflictCount(loc int) uint64 { return m.eng.ConflictCount(loc) }

// Engine returns the commit protocol this Memory was built with.
func (m *Memory) Engine() Engine { return m.eng.EngineKind() }
