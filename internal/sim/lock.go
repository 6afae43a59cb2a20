package sim

// Lock is a mutual-exclusion protocol on the simulated machine. Its words
// start at address 0.
type Lock interface {
	// Acquire blocks (in virtual time) until the lock is held by p.
	Acquire(p *Proc)
	// Release releases the lock; the caller must hold it.
	Release(p *Proc)
	// Words returns the protocol's simulated-memory footprint.
	Words() int
}

// spinThink is the loop overhead charged per spin probe, batching the
// handful of non-memory instructions of a spin iteration.
const spinThink = 2

// ttasMaxBackoff caps TTAS's backoff after a lost test-and-set, in cycles.
const ttasMaxBackoff = 4096

// TTAS is a test-and-test-and-set lock with capped exponential backoff.
// Layout: one word (0 = free, 1 = held) at address 0.
type TTAS struct{}

var _ Lock = TTAS{}

// Words implements Lock.
func (TTAS) Words() int { return 1 }

// Acquire implements Lock.
func (TTAS) Acquire(p *Proc) {
	bo := newBackoff(ttasMaxBackoff)
	for {
		// Test: spin on the (cached) value until it looks free.
		for p.Read(0) != 0 {
			p.Think(spinThink)
		}
		// Test-and-set: one atomic attempt.
		if p.CAS(0, 0, 1) {
			return
		}
		bo.wait(p)
	}
}

// Release implements Lock.
func (TTAS) Release(p *Proc) {
	p.Write(0, 0)
}

// MCS is the Mellor-Crummey–Scott queue lock. Layout (Words = 1 + 2*procs):
//
//	0:         tail (0 = free, else the queue node address of the holder's last waiter)
//	1+2p+0:    processor p's queue node: next (0 = none)
//	1+2p+1:    processor p's queue node: locked flag
//
// Queue-node addresses are strictly positive because they sit above the
// tail word, so 0 is unambiguous as "no node".
type MCS struct {
	procs int
}

var _ Lock = (*MCS)(nil)

// NewMCS lays out an MCS lock for the given processor count.
func NewMCS(procs int) *MCS { return &MCS{procs: procs} }

// Words implements Lock.
func (l *MCS) Words() int { return 1 + 2*l.procs }

func (l *MCS) node(p int) int { return 1 + 2*p }

// Acquire implements Lock.
func (l *MCS) Acquire(p *Proc) {
	qn := l.node(p.ID())
	p.Write(qn, 0)   // next = none
	p.Write(qn+1, 1) // locked = true (cleared by predecessor's handoff)

	// Atomically swap ourselves in as the tail.
	var pred uint64
	for {
		v := p.LL(0)
		if p.SC(0, uint64(qn)) {
			pred = v
			break
		}
	}
	if pred == 0 {
		return // lock was free
	}
	// Link behind the predecessor and spin on our own node — the local
	// spin that makes MCS scale.
	p.Write(int(pred), uint64(qn))
	for p.Read(qn+1) != 0 {
		p.Think(spinThink)
	}
}

// Release implements Lock.
func (l *MCS) Release(p *Proc) {
	qn := l.node(p.ID())
	next := p.Read(qn)
	if next == 0 {
		// No known successor: try to swing the tail back to free.
		if p.CAS(0, uint64(qn), 0) {
			return
		}
		// A successor is in the middle of linking; wait for it.
		for {
			next = p.Read(qn)
			if next != 0 {
				break
			}
			p.Think(spinThink)
		}
	}
	p.Write(int(next)+1, 0) // hand the lock to the successor
}
