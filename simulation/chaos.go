// The fault injectors: the Parker, which sleeps attempt goroutines at the
// engine chaos points, and the preemption storm, which periodically
// floods the scheduler with runnable goroutines. Both draw every decision
// from the run seed, so a failing run's seed reproduces its fault
// decisions — though not which attempt each one lands on (see Parker).

package simulation

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
)

// Park tuning. Roughly one commit in 128 parks, for 20µs–500µs. The parks
// land where they hurt: an ST initiator sleeps with what it owns owned
// (helpers must finish its commit) or, committing a dynamic transaction,
// with the epoch stepped and its reads not yet validated; a TL2 committer
// sleeps holding its commit locks with the clock already stepped
// (conflicting writers abort against it for the stall's whole length). Longer or denser parks
// mostly measure the sleep, not the protocol.
const (
	parkDenom    = 128
	parkMin      = 20 * time.Microsecond
	parkSpan     = 480 * time.Microsecond
	stormMinGap  = 60 * time.Millisecond
	stormGapSpan = 200 * time.Millisecond
	stormMinLen  = 1 * time.Millisecond
	stormLenSpan = 3 * time.Millisecond
)

// Parker is the seam-level fault injector. Its hook runs synchronously on
// attempt goroutines at the five stm.ChaosPoints and decides, from a
// deterministic decision stream, whether to park the attempt and for how
// long. The decision STREAM is deterministic in the seed (decision i is
// always the same); which attempt draws decision i depends on the OS
// schedule, which is the nondeterminism the harness is exercising in the
// first place.
//
// The hook never runs a transaction (a TL2 hook holding commit locks
// would deadlock against its own Memory) and never blocks on anything but
// the bounded sleep, per the SetChaos contract.
type Parker struct {
	seed      uint64
	seq       atomic.Uint64
	parks     [5]atomic.Uint64 // indexed by stm.ChaosPoint
	storms    atomic.Uint64
	connKills atomic.Uint64
	mapChurn  atomic.Uint64
}

func newParker(seed uint64) *Parker { return &Parker{seed: seed} }

// splitmix is the xrand finalizer, inlined so the hook stays
// allocation-free and cheap on the not-parking path (~two multiplies).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hook is the stm.ChaosFunc registered on every Memory the run builds.
func (p *Parker) hook(e stm.ChaosEvent) {
	h := splitmix(p.seed ^ p.seq.Add(1))
	if h%parkDenom != 0 {
		return
	}
	p.parks[e.Point].Add(1)
	time.Sleep(parkMin + time.Duration((h>>32)%uint64(parkSpan)))
}

// storm floods the scheduler at seeded intervals: GOMAXPROCS busy-spinning
// goroutines for a few milliseconds, forcing preemption of every worker —
// including ones inside commit-time critical windows — without touching
// the protocol itself. Runs until ctx is done.
func (p *Parker) storm(ctx context.Context) {
	procs := runtime.GOMAXPROCS(0)
	for i := uint64(0); ; i++ {
		h := splitmix(p.seed ^ 0x5743_4f52_4d5e ^ i)
		gap := stormMinGap + time.Duration(h%uint64(stormGapSpan))
		select {
		case <-ctx.Done():
			return
		case <-time.After(gap):
		}
		p.storms.Add(1)
		stop := time.Now().Add(stormMinLen + time.Duration((h>>32)%uint64(stormLenSpan)))
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
				}
			}()
		}
		wg.Wait()
	}
}

// counts snapshots what actually fired.
func (p *Parker) counts() FaultCounts {
	var f FaultCounts
	for i := range f.Parks {
		f.Parks[i] = p.parks[i].Load()
	}
	f.Storms = p.storms.Load()
	f.ConnKills = p.connKills.Load()
	f.MapChurn = p.mapChurn.Load()
	return f
}

// FaultCounts records how many times each injector fired during a run.
type FaultCounts struct {
	Parks     [5]uint64 // by stm.ChaosPoint: parks taken at each seam site
	Storms    uint64    // preemption storms run
	ConnKills uint64    // client connections killed (serve scenario)
	MapChurn  uint64    // ephemeral-key churn ops forcing map resizes
}

// Injectors counts the distinct fault sources that fired at least once:
// each chaos point is its own injector (only an engine's own points can
// fire on it), plus storms, connection kills, and map churn.
func (f FaultCounts) Injectors() int {
	n := 0
	for _, c := range f.Parks {
		if c > 0 {
			n++
		}
	}
	if f.Storms > 0 {
		n++
	}
	if f.ConnKills > 0 {
		n++
	}
	if f.MapChurn > 0 {
		n++
	}
	return n
}

// Total sums every individual firing.
func (f FaultCounts) Total() uint64 {
	t := f.Storms + f.ConnKills + f.MapChurn
	for _, c := range f.Parks {
		t += c
	}
	return t
}
