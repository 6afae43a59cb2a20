package sim

// BusConfig parameterizes the shared-bus cache-coherent machine. The
// defaults approximate the bus-based configuration of the paper's Proteus
// experiments: single split-transaction bus, snoopy invalidation caches,
// memory an order of magnitude slower than cache.
type BusConfig struct {
	// CacheHit is the cost of reading a word resident in the local cache.
	CacheHit int64
	// BusOccupancy is how long one bus transaction occupies the bus.
	BusOccupancy int64
	// MemLatency is the additional latency of the memory response.
	MemLatency int64
	// WriteBack, when true, lets a processor that holds a word exclusively
	// write it at cache-hit cost (MESI-style M/E states); otherwise every
	// write rides the bus (write-through). The experiments default to
	// write-through; WriteBack exists for the sensitivity analysis of the
	// Proteus substitution (see DESIGN.md).
	WriteBack bool
}

// DefaultBusConfig returns the calibration used by the experiments.
func DefaultBusConfig() BusConfig {
	return BusConfig{CacheHit: 1, BusOccupancy: 4, MemLatency: 10}
}

// WriteBackBusConfig returns the write-back variant of the default
// calibration.
func WriteBackBusConfig() BusConfig {
	cfg := DefaultBusConfig()
	cfg.WriteBack = true
	return cfg
}

// BusModel models a bus-based cache-coherent multiprocessor with snoopy
// write-invalidate caches. Reads hit for CacheHit cycles while the word is
// resident; misses and all writes arbitrate for the single bus (FIFO in
// virtual time) and pay memory latency. Writes invalidate every other
// cache's copy — so a test-and-test-and-set spin costs one cycle per probe
// until the lock word is written, then storms the bus, exactly the
// behaviour the paper's bus figures turn on.
type BusModel struct {
	cfg BusConfig
	// sharers is one bitset per word, stride words of 64 bits each: bit p
	// of word addr's set is on while processor p holds a valid copy.
	sharers   []uint64
	stride    int
	busFreeAt int64
	busOps    int64
}

var _ CostModel = (*BusModel)(nil)

// NewBusModel builds a bus model for the given processor count and memory
// size.
func NewBusModel(procs, words int, cfg BusConfig) *BusModel {
	stride := (procs + 63) / 64
	return &BusModel{cfg: cfg, sharers: make([]uint64, words*stride), stride: stride}
}

// BusTransactions returns the number of bus transactions issued so far —
// the coherence-traffic metric reported by experiment T1.
func (b *BusModel) BusTransactions() int64 { return b.busOps }

// set returns addr's sharer bitset.
func (b *BusModel) set(addr int) []uint64 {
	return b.sharers[addr*b.stride : (addr+1)*b.stride]
}

func (b *BusModel) has(p, addr int) bool {
	return b.set(addr)[p/64]&(1<<uint(p%64)) != 0
}

func (b *BusModel) addSharer(p, addr int) {
	b.set(addr)[p/64] |= 1 << uint(p%64)
}

// exclusive reports whether p is the sole holder of addr's line.
func (b *BusModel) exclusive(p, addr int) bool {
	for i, w := range b.set(addr) {
		var want uint64
		if i == p/64 {
			want = 1 << uint(p%64)
		}
		if w != want {
			return false
		}
	}
	return true
}

func (b *BusModel) setExclusive(p, addr int) {
	set := b.set(addr)
	clear(set)
	set[p/64] = 1 << uint(p%64)
}

// busTransaction queues one transaction behind current bus traffic and
// returns its total latency from `now`.
func (b *BusModel) busTransaction(now int64) int64 {
	start := now
	if b.busFreeAt > start {
		start = b.busFreeAt
	}
	b.busFreeAt = start + b.cfg.BusOccupancy
	b.busOps++
	return (start - now) + b.cfg.BusOccupancy + b.cfg.MemLatency
}

// Cost implements CostModel.
func (b *BusModel) Cost(p int, addr int, kind OpKind, now int64) int64 {
	switch kind {
	case OpRead, OpLL:
		if b.has(p, addr) {
			return b.cfg.CacheHit
		}
		c := b.busTransaction(now)
		b.addSharer(p, addr)
		return c
	case OpWrite, OpSC, OpCAS:
		// Write-invalidate: one bus transaction, everyone else loses the
		// line, the writer keeps it exclusively. Under write-back, a
		// writer that already holds the line exclusively pays only the
		// cache.
		if b.cfg.WriteBack && b.exclusive(p, addr) {
			return b.cfg.CacheHit
		}
		c := b.busTransaction(now)
		b.setExclusive(p, addr)
		return c
	case OpSCFail, OpCASFail:
		// A failed conditional still probes the line. If it is cached the
		// failure is detected locally (the snoop already invalidated or
		// updated the reservation); otherwise it rides the bus.
		if b.has(p, addr) {
			return b.cfg.CacheHit
		}
		c := b.busTransaction(now)
		b.addSharer(p, addr)
		return c
	default:
		return b.cfg.CacheHit
	}
}
