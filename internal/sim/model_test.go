package sim

import "testing"

func TestBusModelCaching(t *testing.T) {
	b := NewBusModel(2, 8, BusConfig{CacheHit: 1, BusOccupancy: 4, MemLatency: 10})

	// Cold read misses: bus + memory.
	if c := b.Cost(0, 3, OpRead, 0); c != 14 {
		t.Errorf("cold read = %d, want 14", c)
	}
	// Re-read hits.
	if c := b.Cost(0, 3, OpRead, 20); c != 1 {
		t.Errorf("cached read = %d, want 1", c)
	}
	// Another processor reading shares the line (miss first).
	if c := b.Cost(1, 3, OpRead, 40); c != 14 {
		t.Errorf("other proc cold read = %d, want 14", c)
	}
	// A write by processor 1 invalidates processor 0's copy.
	if c := b.Cost(1, 3, OpWrite, 60); c != 14 {
		t.Errorf("write = %d, want 14", c)
	}
	if c := b.Cost(1, 3, OpRead, 80); c != 1 {
		t.Errorf("writer's own re-read = %d, want 1 (exclusive)", c)
	}
	if c := b.Cost(0, 3, OpRead, 100); c != 14 {
		t.Errorf("invalidated read = %d, want 14", c)
	}
	if b.BusTransactions() != 4 {
		t.Errorf("bus transactions = %d, want 4", b.BusTransactions())
	}
}

func TestBusModelQueueing(t *testing.T) {
	b := NewBusModel(4, 4, BusConfig{CacheHit: 1, BusOccupancy: 4, MemLatency: 10})
	// Three simultaneous misses at t=0 serialize on the bus: each later
	// transaction waits for the earlier ones' occupancy.
	c0 := b.Cost(0, 0, OpRead, 0)
	c1 := b.Cost(1, 1, OpRead, 0)
	c2 := b.Cost(2, 2, OpRead, 0)
	if c0 != 14 || c1 != 18 || c2 != 22 {
		t.Errorf("queued misses = (%d,%d,%d), want (14,18,22)", c0, c1, c2)
	}
}

func TestBusModelSCFailLocal(t *testing.T) {
	b := NewBusModel(2, 4, DefaultBusConfig())
	b.Cost(0, 0, OpRead, 0) // cache the line
	hit := b.Cost(0, 0, OpSCFail, 10)
	if hit != DefaultBusConfig().CacheHit {
		t.Errorf("cached sc-fail = %d, want %d", hit, DefaultBusConfig().CacheHit)
	}
}

func TestBusModelManyProcsFallback(t *testing.T) {
	// >64 processors spreads a word's sharer set over two bitset words.
	b := NewBusModel(80, 4, DefaultBusConfig())
	if c := b.Cost(70, 1, OpRead, 0); c <= DefaultBusConfig().CacheHit {
		t.Errorf("cold read = %d, want a miss", c)
	}
	if c := b.Cost(70, 1, OpRead, 100); c != DefaultBusConfig().CacheHit {
		t.Errorf("cached read = %d, want hit", c)
	}
	b.Cost(2, 1, OpWrite, 200)
	if c := b.Cost(70, 1, OpRead, 300); c == DefaultBusConfig().CacheHit {
		t.Error("read after invalidation hit in cache")
	}
}

func TestBusModelWriteBack(t *testing.T) {
	cfg := WriteBackBusConfig()
	b := NewBusModel(2, 4, cfg)
	// First write: miss, rides the bus, becomes exclusive.
	if c := b.Cost(0, 1, OpWrite, 0); c != 14 {
		t.Errorf("first write = %d, want 14", c)
	}
	// Second write by the same processor: exclusive, cache cost.
	if c := b.Cost(0, 1, OpWrite, 20); c != cfg.CacheHit {
		t.Errorf("exclusive write = %d, want %d", c, cfg.CacheHit)
	}
	// Another processor reads (shares the line)...
	b.Cost(1, 1, OpRead, 40)
	// ...so the original writer is no longer exclusive: bus again.
	if c := b.Cost(0, 1, OpWrite, 60); c <= cfg.CacheHit {
		t.Errorf("shared-line write = %d, want a bus transaction", c)
	}
	// Write-through (default) never takes the cheap path.
	wt := NewBusModel(2, 4, DefaultBusConfig())
	wt.Cost(0, 1, OpWrite, 0)
	if c := wt.Cost(0, 1, OpWrite, 20); c == DefaultBusConfig().CacheHit {
		t.Error("write-through write hit in cache")
	}
}

func TestBusModelWriteBackBigFallback(t *testing.T) {
	cfg := WriteBackBusConfig()
	b := NewBusModel(80, 4, cfg) // >64 procs: two-word sharer sets
	b.Cost(70, 2, OpWrite, 0)
	if c := b.Cost(70, 2, OpWrite, 20); c != cfg.CacheHit {
		t.Errorf("exclusive write (big) = %d, want %d", c, cfg.CacheHit)
	}
	b.Cost(3, 2, OpRead, 40)
	if c := b.Cost(70, 2, OpWrite, 60); c == cfg.CacheHit {
		t.Error("shared-line write (big) hit in cache")
	}
}

func TestNetModelLocalVsRemote(t *testing.T) {
	cfg := NetConfig{LocalAccess: 2, NetLatency: 8, ModuleService: 4}
	n := NewNetModel(4, cfg)
	// Word 0 lives on module 0.
	if c := n.Cost(0, 0, OpRead, 0); c != 2+4 {
		t.Errorf("local access = %d, want 6", c)
	}
	if c := n.Cost(1, 0, OpRead, 100); c != 8+4+8 {
		t.Errorf("remote access = %d, want 20", c)
	}
	if n.RemoteOps() != 1 {
		t.Errorf("remote ops = %d, want 1", n.RemoteOps())
	}
}

func TestNetModelHotSpotQueueing(t *testing.T) {
	cfg := NetConfig{LocalAccess: 2, NetLatency: 8, ModuleService: 4}
	n := NewNetModel(8, cfg)
	// Four remote processors hit word 0 (module 0) at the same instant:
	// arrivals at t=8 serialize in 4-cycle service slots.
	costs := []int64{
		n.Cost(1, 0, OpRead, 0),
		n.Cost(2, 0, OpRead, 0),
		n.Cost(3, 0, OpRead, 0),
		n.Cost(4, 0, OpRead, 0),
	}
	want := []int64{20, 24, 28, 32}
	for i := range costs {
		if costs[i] != want[i] {
			t.Errorf("hot-spot request %d = %d, want %d", i, costs[i], want[i])
		}
	}
}

func TestNetModelStriping(t *testing.T) {
	n := NewNetModel(4, DefaultNetConfig())
	// Word w is local exactly to processor w%4.
	for w := 0; w < 8; w++ {
		local := n.Cost(w%4, w, OpRead, int64(1000*w))
		remote := n.Cost((w+1)%4, w, OpRead, int64(1000*w+500))
		if local >= remote {
			t.Errorf("word %d: local %d not cheaper than remote %d", w, local, remote)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpRead, OpWrite, OpLL, OpSC, OpSCFail, OpCAS, OpCASFail, OpKind(99)}
	want := []string{"read", "write", "ll", "sc", "sc-fail", "cas", "cas-fail", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), k.String(), want[i])
		}
	}
}
