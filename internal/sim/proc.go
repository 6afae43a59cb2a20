package sim

import "github.com/stm-go/stm/internal/xrand"

// Proc is one simulated processor: the handle through which a Program
// touches the machine. A Proc's methods may only be called from its own
// Program; the machine's token-passing scheduler makes every memory
// operation globally ordered, so Proc methods never race even though the
// whole machine shares unlocked state.
type Proc struct {
	id    int
	m     *Machine
	grant chan struct{}
	prog  Program
	rng   *xrand.RNG // private stream: workload choices, decorrelated per processor

	time int64
	ops  int64

	// LL/SC reservation: the address of the last LL and the word's write
	// stamp at that moment. SC succeeds iff the stamp is unchanged.
	resAddr  int
	resStamp uint64
}

// ID returns the processor number, 0-based.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's local virtual clock.
func (p *Proc) Now() int64 { return p.time }

// Think advances the local clock by c cycles of purely local computation.
// It performs no memory access and does not yield the processor.
func (p *Proc) Think(c int64) {
	if c > 0 {
		p.time += c
	}
}

// acquireTurn hands the token back to the scheduler and blocks until this
// processor is globally earliest. On return the processor owns the machine
// state at virtual time p.time.
func (p *Proc) acquireTurn() {
	if p.m.stopping {
		panic(errStopped)
	}
	p.m.yieldCh <- yieldMsg{p: p, time: p.time, alive: true}
	<-p.grant
	if p.m.stopping {
		panic(errStopped)
	}
}

// charge prices the operation just performed and advances the clock,
// applying jitter and any configured stall plan.
func (p *Proc) charge(kind OpKind, addr int) {
	m := p.m
	cost := m.cfg.Model.Cost(p.id, addr, kind, p.time)
	if m.cfg.Jitter > 0 {
		cost += m.rng.Int63n(m.cfg.Jitter + 1)
	}
	p.ops++
	if s := m.cfg.Stall; s != nil && p.id < s.Procs && p.ops%s.Period == 0 {
		cost += s.Duration
	}
	p.time += cost
}

// Read returns the value of a shared word.
func (p *Proc) Read(addr int) uint64 {
	p.acquireTurn()
	v := p.m.words[addr]
	p.charge(OpRead, addr)
	return v
}

// Write stores v into a shared word, invalidating any reservations on it.
func (p *Proc) Write(addr int, v uint64) {
	p.acquireTurn()
	p.m.words[addr] = v
	p.m.stamp[addr]++
	p.charge(OpWrite, addr)
}

// LL reads a shared word and opens a reservation on it: a subsequent SC on
// the same address succeeds iff no write to it intervened.
func (p *Proc) LL(addr int) uint64 {
	p.acquireTurn()
	v := p.m.words[addr]
	p.resAddr = addr
	p.resStamp = p.m.stamp[addr]
	p.charge(OpLL, addr)
	return v
}

// SC stores v iff the reservation opened by the last LL on addr is intact,
// reporting whether the store happened. Exact LL/SC: no spurious failures.
func (p *Proc) SC(addr int, v uint64) bool {
	p.acquireTurn()
	ok := p.resAddr == addr && p.resStamp == p.m.stamp[addr]
	if ok {
		p.m.words[addr] = v
		p.m.stamp[addr]++
		p.charge(OpSC, addr)
	} else {
		p.charge(OpSCFail, addr)
	}
	p.resAddr = -1
	return ok
}

// Validate reports whether the reservation opened by the last LL on addr
// is still intact (no intervening write), without writing. It is the
// read-only-commit probe of LL/SC protocols and is priced as a read. The
// reservation survives the probe.
func (p *Proc) Validate(addr int) bool {
	p.acquireTurn()
	ok := p.resAddr == addr && p.resStamp == p.m.stamp[addr]
	p.charge(OpRead, addr)
	return ok
}

// CAS atomically replaces the word at addr with new iff it equals old,
// reporting whether it did. It is priced as a single atomic operation.
func (p *Proc) CAS(addr int, old, new uint64) bool {
	p.acquireTurn()
	ok := p.m.words[addr] == old
	if ok {
		p.m.words[addr] = new
		p.m.stamp[addr]++
		p.charge(OpCAS, addr)
	} else {
		p.charge(OpCASFail, addr)
	}
	return ok
}

// Rand returns the next value of the processor's private deterministic
// random stream. Streams are seeded from the machine seed and the processor
// id, so runs replay exactly and processors stay decorrelated. Intended for
// workload choices such as picking a random account pair; it consumes no
// virtual time.
func (p *Proc) Rand() uint64 { return p.rng.Uint64() }

// backoff is capped exponential backoff with jitter, the retry pause of
// every protocol here: each wait draws uniformly from [cur, 2·cur) cycles,
// then cur doubles up to max.
type backoff struct{ cur, max int64 }

func newBackoff(max int64) backoff { return backoff{cur: 32, max: max} }

// wait pauses p once and lengthens the next pause.
func (b *backoff) wait(p *Proc) {
	p.Think(b.cur + int64(p.Rand()%uint64(b.cur)))
	b.cur = min(2*b.cur, b.max)
}
