package backoff

import (
	"sync"
	"testing"
	"time"

	"github.com/stm-go/stm/internal/xrand"
)

func TestWaitDoublesAndSaturates(t *testing.T) {
	b := Exp{waits: spins} // skip the yield phase for this test
	want := Min
	for i := 0; i < 10; i++ {
		b.Wait()
		want = min(2*want, Max)
		if b.cur != want {
			t.Fatalf("after sleep %d cur = %v, want %v", i+1, b.cur, want)
		}
	}
	if b.cur != Max {
		t.Errorf("cur = %v, want saturation at %v", b.cur, Max)
	}
}

func TestFirstWaitsSpin(t *testing.T) {
	var b Exp
	for i := 0; i < spins; i++ {
		b.Wait()
		if b.cur != 0 {
			t.Fatalf("wait %d slept (cur = %v); the first %d waits only yield", i+1, b.cur, spins)
		}
	}
	b.Wait()
	if b.cur != 2*Min {
		t.Errorf("cur after the first sleep = %v, want %v", b.cur, 2*Min)
	}
}

func TestJitterWithinBounds(t *testing.T) {
	b := Exp{waits: spins, cur: Max}
	start := time.Now()
	b.Wait()
	elapsed := time.Since(start)
	// Sleep is cur/2 + jitter∈[0,cur): between 50µs and ~150µs plus
	// scheduler slop.
	if elapsed < 40*time.Microsecond {
		t.Errorf("wait too short: %v", elapsed)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("wait absurdly long: %v", elapsed)
	}
}

func TestConcurrentSeedsDecorrelate(t *testing.T) {
	// Backoffs first waited on concurrently must all start distinct jitter
	// streams: no two may share an rng state, even when seeded at the same
	// instant from many goroutines.
	const n = 64
	states := make([]xrand.RNG, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var b Exp
			b.Wait()
			states[i] = b.rng
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
	// An Exp's jitter stream is a function of the seed its first Wait
	// draws: the same seed replays the same stream, the next one differs.
	seeded := func(seed uint64) *Exp {
		seedSeq.Store(seed - 1)
		b := new(Exp)
		b.Wait()
		return b
	}
	a, b, c := seeded(9), seeded(9), seeded(10)
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
