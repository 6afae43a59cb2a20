package bench

import (
	"fmt"
	"slices"

	"github.com/stm-go/stm/internal/sim"
)

// runResAlloc is the k-way resource-allocation workload used by the
// ablation experiment F6: each operation atomically takes one unit from K
// random distinct pools (blocking until all K are simultaneously free) and
// then releases them. Overlapping random K-sets are the stress case for the
// paper's two key design choices — increasing-address acquisition and
// helping — so this workload separates the stm / stm-nohelp / stm-unsorted
// variants. Lock methods serialize the whole operation behind one lock (the
// honest coarse-grained equivalent; fine-grained incremental locking of
// random K-sets deadlocks).
func runResAlloc(spec Spec) (Outcome, error) {
	if spec.Pools == 0 {
		spec.Pools = 16
	}
	if spec.K == 0 {
		spec.K = 3
	}
	if spec.K < 1 || spec.K > spec.Pools {
		return Outcome{}, fmt.Errorf("workload: K must be in [1,%d], got %d", spec.Pools, spec.K)
	}
	switch spec.Method {
	case MethodSTM, MethodSTMNoHelp, MethodSTMUnsorted:
		return resAllocSTM(spec)
	case MethodTTAS, MethodMCS:
		return resAllocLock(spec)
	case MethodHerlihy:
		// F6 compares the STM variants against each other and the locks;
		// under Herlihy's method the whole pool vector would be one object
		// and every acquisition a full copy, which the counting and queue
		// figures already demonstrate.
		return Outcome{}, fmt.Errorf("workload: resalloc is not implemented for method %q", spec.Method)
	default:
		return Outcome{}, fmt.Errorf("workload: unknown method %q", spec.Method)
	}
}

// pickPools draws K distinct pool indices, in random order (exercising the
// Unsorted ablation's acquisition order).
func pickPools(p *sim.Proc, pools, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		if c := int(p.Rand() % uint64(pools)); !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// Ops for the STM variant: 0 = guarded acquire (all pools > 0 → decrement
// all, else no-op), 1 = release (add arg, always 1, to all).
var resAllocOps = []sim.OpFunc{
	func(_, _ uint64, old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		copy(nv, old)
		for _, v := range old {
			if v == 0 || v == ^uint64(0) {
				return nv // some pool empty (or torn read): no-op
			}
		}
		for i, v := range old {
			nv[i] = v - 1
		}
		return nv
	},
	addOp,
}

// seedPools puts one unit in each of the spec's pools, which start at base.
func seedPools(spec Spec, m *sim.Machine, base int) {
	for i := 0; i < spec.Pools; i++ {
		m.SetWord(base+i, 1)
	}
}

// checkPools verifies every pool ended within [0, 1+slack] — units can be
// transiently held by unwound processors but never duplicated.
func checkPools(spec Spec, m *sim.Machine, base int) error {
	for i := 0; i < spec.Pools; i++ {
		if v := m.WordAt(base + i); v > 1+uint64(spec.Procs) {
			return fmt.Errorf("workload: pool %d = %d, exceeds unit count plus slack", i, v)
		}
	}
	return nil
}

func resAllocSTM(spec Spec) (Outcome, error) {
	s, m, err := newSTM(spec, spec.Pools, spec.K, resAllocOps)
	if err != nil {
		return Outcome{}, err
	}
	seedPools(spec, m, 0)
	ops, err := loop(spec, m, func(p *sim.Proc) bool {
		set := pickPools(p, spec.Pools, spec.K)
		// Acquire: retry until the guard passed (all were free).
		for tries := 1; slices.Contains(s.Run(p, set, 0, 0, 0), 0); tries++ {
			p.Think(64) // pools busy; brief pause
			if tries == 8 {
				return false // re-draw a different set rather than starve
			}
		}
		p.Think(32) // hold the resources briefly
		s.Run(p, set, 1, 1, 0)
		return true
	})
	if err == nil {
		err = checkPools(spec, m, 0)
	}
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, stmExtra(s)), nil
}

func resAllocLock(spec Spec) (Outcome, error) {
	lk := newLock(spec)
	poolBase := lk.Words()
	m, err := machine(spec, poolBase+spec.Pools)
	if err != nil {
		return Outcome{}, err
	}
	seedPools(spec, m, poolBase)
	ops, err := loop(spec, m, func(p *sim.Proc) bool {
		set := pickPools(p, spec.Pools, spec.K)
		lk.Acquire(p)
		ok := true
		for _, x := range set {
			if p.Read(poolBase+x) == 0 {
				ok = false
				break
			}
		}
		if ok {
			for _, x := range set {
				p.Write(poolBase+x, p.Read(poolBase+x)-1)
			}
		}
		lk.Release(p)
		if !ok {
			p.Think(64)
			return false
		}
		p.Think(32) // hold the resources briefly
		lk.Acquire(p)
		for _, x := range set {
			p.Write(poolBase+x, p.Read(poolBase+x)+1)
		}
		lk.Release(p)
		return true
	})
	if err == nil {
		err = checkPools(spec, m, poolBase)
	}
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, nil), nil
}
