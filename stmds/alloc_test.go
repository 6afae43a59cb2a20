package stmds_test

// Allocation regression pins for the structure hot paths. Stable-shape
// operations — a queue put/take pair, map hits and misses on a settled
// table, heap push/pop — ride pooled op scratch over the pooled dynamic
// engine, so they settle at zero heap allocations per op with contention
// telemetry on; these tests fail before a benchmark would notice a
// regression. Codec cost is excluded by using int64 payloads (a string
// codec's Decode allocates by contract).

import (
	"fmt"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
	"github.com/stm-go/stm/stmobs"
)

func assertAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if got := testing.AllocsPerRun(200, fn); got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.1f", name, got, want)
	}
}

func TestAllocsQueuePutTake(t *testing.T) {
	m := mustMem(t, 64)
	q := mustQueue(t, m, 8)
	// Warm the op pool and the ring.
	for i := int64(0); i < 16; i++ {
		q.Put(i)
		q.Take()
	}
	assertAllocs(t, "Queue.Put+Take", 0, func() {
		q.Put(7)
		if got := q.Take(); got != 7 {
			t.Fatal("wrong element")
		}
	})
	assertAllocs(t, "Queue.TryPut+TryTake", 0, func() {
		if !q.TryPut(9) {
			t.Fatal("TryPut failed with room")
		}
		if _, ok := q.TryTake(); !ok {
			t.Fatal("TryTake failed with element queued")
		}
	})
	assertAllocs(t, "Queue.Len", 0, func() { _ = q.Len() })
	if m.Stats().Commits == 0 {
		t.Error("telemetry disabled? no commits counted")
	}
}

func TestAllocsMapOps(t *testing.T) {
	m := mustMem(t, 1<<14)
	mp := mustMap(t, m, 256) // sized: no growth during the pinned window
	for i := int64(0); i < 128; i++ {
		if _, _, err := mp.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	assertAllocs(t, "Map.Get hit", 0, func() {
		if v, ok := mp.Get(64); !ok || v != 192 {
			t.Fatal("wrong value")
		}
	})
	assertAllocs(t, "Map.Get miss", 0, func() {
		if _, ok := mp.Get(9999); ok {
			t.Fatal("phantom hit")
		}
	})
	assertAllocs(t, "Map.Put overwrite", 0, func() {
		if _, _, err := mp.Put(64, 192); err != nil {
			t.Fatal(err)
		}
	})
	// Insert/delete churn of one key reuses its tombstone: stable shape.
	assertAllocs(t, "Map.Put+Delete", 0, func() {
		if _, _, err := mp.Put(500, 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := mp.Delete(500); !ok {
			t.Fatal("delete missed")
		}
	})
	assertAllocs(t, "Map.Len", 0, func() { _ = mp.Len() })
}

func TestAllocsPQPushPop(t *testing.T) {
	m := mustMem(t, 1<<10)
	pq := mustPQ(t, m, 32)
	for i := uint64(0); i < 8; i++ {
		pq.Push(int64(i), i)
	}
	assertAllocs(t, "PQ.Push+TakeMin", 0, func() {
		pq.Push(100, 0)
		if _, p := pq.TakeMin(); p != 0 {
			t.Fatal("wrong priority")
		}
	})
	assertAllocs(t, "PQ.Min", 0, func() {
		if _, _, ok := pq.Min(); !ok {
			t.Fatal("empty heap")
		}
	})
}

func TestAllocsTxForms(t *testing.T) {
	// A composed transaction with a stable footprint — queue take feeding
	// a map put — also settles at zero allocations, minus the caller's
	// own closure (captured here in a pre-bound variable the way hot
	// callers would).
	m := mustMem(t, 1<<14)
	q := mustQueue(t, m, 8)
	mp := mustMap(t, m, 64)
	move := func(tx *stm.DTx) error {
		v := q.TakeTx(tx)
		_, _, err := mp.PutTx(tx, v%16, v)
		return err
	}
	for i := int64(0); i < 4; i++ {
		q.Put(i)
		if err := m.Atomically(move); err != nil {
			t.Fatal(err)
		}
	}
	assertAllocs(t, "Atomically(TakeTx+PutTx)", 0, func() {
		q.Put(3)
		if err := m.Atomically(move); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsTL2Map pins the structure hot path on the TL2 engine: map
// put/get on a settled table must be allocation-free there too, so engine
// choice never costs a structure its zero-allocation contract. Get makes no
// engine attempt on either engine (it wrote nothing), Put rides TL2's short
// locking commit; both must stay off the heap with telemetry on.
func TestAllocsTL2Map(t *testing.T) {
	m, err := stm.New(1<<14, stm.WithEngine(stm.TL2))
	if err != nil {
		t.Fatal(err)
	}
	mp := mustMap(t, m, 256)
	for i := int64(0); i < 128; i++ {
		if _, _, err := mp.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	assertAllocs(t, "TL2/Map.Get hit", 0, func() {
		if v, ok := mp.Get(64); !ok || v != 192 {
			t.Fatal("wrong value")
		}
	})
	assertAllocs(t, "TL2/Map.Get miss", 0, func() {
		if _, ok := mp.Get(9999); ok {
			t.Fatal("phantom hit")
		}
	})
	assertAllocs(t, "TL2/Map.Put overwrite", 0, func() {
		if _, _, err := mp.Put(64, 192); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "TL2/Map.Put+Delete", 0, func() {
		if _, _, err := mp.Put(500, 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := mp.Delete(500); !ok {
			t.Fatal("delete missed")
		}
	})
	if m.Stats().Commits == 0 {
		t.Error("telemetry disabled? no commits counted")
	}
}

// TestAllocsMapGetObserved pins a map hit at every observability level on
// both engines: the seam must not cost a structure its zero-allocation
// contract, with an event counter installed and, at ObsTrace, a ring
// tracer sampling one transaction in DefaultSampleEvery.
func TestAllocsMapGetObserved(t *testing.T) {
	for _, eng := range stm.Engines() {
		for _, cfg := range []stm.ObsConfig{
			{Level: stm.ObsCounters, Observer: &stmobs.EventCounter{}},
			{Level: stm.ObsHistograms, Observer: &stmobs.EventCounter{}},
			{Level: stm.ObsTrace, Observer: stmobs.NewRingTracer(64), SampleEvery: stm.DefaultSampleEvery},
		} {
			m := mustMemEngine(t, 1<<14, eng)
			m.Observe(cfg)
			mp := mustMap(t, m, 256)
			for i := int64(0); i < 128; i++ {
				if _, _, err := mp.Put(i, i*3); err != nil {
					t.Fatal(err)
				}
			}
			assertAllocs(t, fmt.Sprintf("%v/obs-%v/Map.Get hit", eng, cfg.Level), 0, func() {
				if v, ok := mp.Get(64); !ok || v != 192 {
					t.Fatal("wrong value")
				}
			})
		}
	}
}

// Compile-time check that Set rides Map's no-value-words mode without its
// own allocation surface worth pinning separately.
var _ = stmds.SetWords[int64]
