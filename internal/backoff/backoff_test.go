package backoff

import (
	"sync"
	"testing"
	"time"

	"github.com/stm-go/stm/internal/xrand"
)

func TestNewClampsArguments(t *testing.T) {
	b := New(0, -1, 1)
	if b.min <= 0 || b.max < b.min {
		t.Errorf("bad clamping: min=%v max=%v", b.min, b.max)
	}
}

func TestWaitDoublesAndSaturates(t *testing.T) {
	b := New(time.Microsecond, 8*time.Microsecond, 1)
	b.spins = 0 // skip the spin phase for this test
	for i := 0; i < 10; i++ {
		b.Wait()
	}
	if b.cur != 8*time.Microsecond {
		t.Errorf("cur = %v, want saturation at 8µs", b.cur)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	b := New(time.Microsecond, time.Millisecond, 2)
	b.spins = 0
	for i := 0; i < 5; i++ {
		b.Wait()
	}
	b.Reset()
	if b.cur != b.min {
		t.Errorf("cur after Reset = %v, want %v", b.cur, b.min)
	}
	if b.spins == 0 {
		t.Error("spin budget not restored by Reset")
	}
}

func TestFirstWaitsSpin(t *testing.T) {
	b := New(time.Millisecond, time.Second, 3)
	start := time.Now()
	for i := 0; i < 8; i++ {
		b.Wait() // spin phase: must not sleep a millisecond
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("spin phase took %v; expected busy spins", elapsed)
	}
}

func TestJitterWithinBounds(t *testing.T) {
	b := New(100*time.Microsecond, 100*time.Microsecond, 7)
	b.spins = 0
	start := time.Now()
	b.Wait()
	elapsed := time.Since(start)
	// Sleep is cur/2 + jitter∈[0,cur): between 50µs and ~200µs plus
	// scheduler slop.
	if elapsed < 40*time.Microsecond {
		t.Errorf("wait too short: %v", elapsed)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("wait absurdly long: %v", elapsed)
	}
}

func TestNewSeededConcurrentDecorrelation(t *testing.T) {
	// Backoffs constructed concurrently must all start distinct jitter
	// streams: no two may share an rng state, even when constructed at the
	// same instant from many goroutines.
	const n = 64
	states := make([]xrand.RNG, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i] = NewSeeded(time.Microsecond, time.Millisecond).rng
		}(i)
	}
	wg.Wait()
	seen := make(map[xrand.RNG]bool, n)
	for _, s := range states {
		if seen[s] {
			t.Fatalf("two concurrently seeded backoffs share rng state %+v", s)
		}
		seen[s] = true
	}
}

func TestDeterministicJitterPerSeed(t *testing.T) {
	a, b := New(time.Microsecond, time.Second, 9), New(time.Microsecond, time.Second, 9)
	c := New(time.Microsecond, time.Second, 10)
	for i := 0; i < 20; i++ {
		if a.rng != b.rng {
			t.Fatalf("same seed, draw %d: generator states %+v and %+v differ", i, a.rng, b.rng)
		}
		if a.rng == c.rng {
			t.Fatalf("seeds 9 and 10 share generator state %+v at draw %d", a.rng, i)
		}
		if x, y := a.rng.Uint64(), b.rng.Uint64(); x != y {
			t.Fatal("same seed produced different jitter streams")
		}
		c.rng.Uint64()
	}
}
