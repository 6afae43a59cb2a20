package sim

import (
	"errors"
	"fmt"
	"slices"
)

// Herlihy is one object under Herlihy's general method, placed in
// simulated memory from word 0 (Words = 1 + (2*Procs+1)*StateWords):
//
//	0:  root (address of the current state block)
//	1:  initial block, then two private blocks per processor
//
// Block reuse is the standard two-buffer scheme: each processor alternates
// between its two private blocks, switching only after a successful
// install, so the block it overwrites is never the one the root points to.
// A copier that races with reuse may observe torn state, but its
// store-conditional then fails and the computed values are discarded — the
// paper's own discipline (with LL/SC there is no ABA problem).
type Herlihy struct {
	stateWords int
	ops        []OpFunc
	stats      Stats
	toggle     []int // which private block each processor writes next
}

// herlihyRoot is the address of an object's root word; its initial block
// starts right after it.
const herlihyRoot = 0

// NewHerlihy validates its arguments and returns an object of stateWords
// words for procs processors whose updates are the registered ops. The
// caller must size the machine's memory to cover [0, Words()) and call
// SeedInitial before the run.
func NewHerlihy(procs, stateWords int, ops []OpFunc) (*Herlihy, error) {
	if procs < 1 {
		return nil, fmt.Errorf("sim: Procs must be ≥ 1, got %d", procs)
	}
	if stateWords < 1 {
		return nil, fmt.Errorf("sim: StateWords must be ≥ 1, got %d", stateWords)
	}
	if len(ops) == 0 {
		return nil, errors.New("sim: at least one OpFunc is required")
	}
	return &Herlihy{stateWords: stateWords, ops: ops, toggle: make([]int, procs)}, nil
}

// Words returns the instance's simulated-memory footprint.
func (o *Herlihy) Words() int { return 1 + (2*len(o.toggle)+1)*o.stateWords }

func (o *Herlihy) privateBlock(p, which int) int {
	return herlihyRoot + 1 + o.stateWords + (2*p+which)*o.stateWords
}

// SeedInitial writes the object's initial state directly into the machine
// before a run (zero virtual cost; machine construction time).
func (o *Herlihy) SeedInitial(m *Machine, state []uint64) error {
	if len(state) != o.stateWords {
		return fmt.Errorf("sim: initial state has %d words, want %d", len(state), o.stateWords)
	}
	for i, v := range state {
		m.SetWord(herlihyRoot+1+i, v)
	}
	m.SetWord(herlihyRoot, herlihyRoot+1)
	return nil
}

// Stats returns the object's counters; Failures counts failed installs.
// Call after the run completes.
func (o *Herlihy) Stats() Stats { return o.stats }

// Update applies the registered op to the object on processor p, retrying
// until the install succeeds, and returns the state the update was computed
// from.
func (o *Herlihy) Update(p *Proc, opcode int, arg, arg2 uint64) []uint64 {
	if opcode < 0 || opcode >= len(o.ops) {
		panic(fmt.Sprintf("sim: opcode %d outside [0,%d)", opcode, len(o.ops)))
	}
	bo := newBackoff(maxBackoff)
	old := make([]uint64, o.stateWords)
	for {
		o.stats.Attempts++
		root := int(p.LL(herlihyRoot))
		// Copy the whole object (the method's defining cost).
		for i := range old {
			old[i] = p.Read(root + i)
		}
		p.Think(calcCost * int64(o.stateWords))
		next := o.ops[opcode](arg, arg2, old)
		if len(next) != o.stateWords {
			next = old // defensive: misbehaving op becomes identity
		}
		var ok bool
		if slices.Equal(next, old) {
			// Read-only / no-op outcome: Herlihy's methodology does not
			// install a new block, it only validates that the copied
			// snapshot was consistent (the reservation is still intact).
			// Installing here would needlessly invalidate every concurrent
			// copier and can starve updaters behind a no-op loop.
			ok = p.Validate(herlihyRoot)
		} else {
			blk := o.privateBlock(p.ID(), o.toggle[p.ID()])
			for i, v := range next {
				p.Write(blk+i, v)
			}
			if ok = p.SC(herlihyRoot, uint64(blk)); ok {
				o.toggle[p.ID()] ^= 1
			}
		}
		if ok {
			o.stats.Commits++
			return slices.Clone(old)
		}
		o.stats.Failures++
		bo.wait(p)
	}
}
