package bench

import (
	"fmt"

	"github.com/stm-go/stm/internal/sim"
)

// runCounting is the paper's counting benchmark: every processor repeatedly
// performs an atomic fetch-and-increment on one shared counter. This is the
// smallest possible transaction (data set of one word), so it isolates the
// constant protocol overheads and the contention behaviour of each method.
func runCounting(spec Spec) (Outcome, error) {
	switch spec.Method {
	case MethodSTM, MethodSTMNoHelp, MethodSTMUnsorted:
		return countingSTM(spec)
	case MethodHerlihy:
		return countingHerlihy(spec)
	case MethodTTAS, MethodMCS:
		return countingLock(spec)
	default:
		return Outcome{}, fmt.Errorf("workload: unknown method %q", spec.Method)
	}
}

// addOp adds arg to every word it is given.
func addOp(arg, _ uint64, old []uint64) []uint64 {
	nv := make([]uint64, len(old))
	for i, v := range old {
		nv[i] = v + arg
	}
	return nv
}

// checkCounter verifies the counter's final value against the increments
// counted.
func checkCounter(spec Spec, got uint64, ops int64) error {
	return slackCheck("counter", int64(got), ops, int64(spec.Procs))
}

func countingSTM(spec Spec) (Outcome, error) {
	// The counter is data word 0; word 1 is padding.
	s, m, err := newSTM(spec, 2, 1, []sim.OpFunc{addOp})
	if err != nil {
		return Outcome{}, err
	}
	ops, err := loop(spec, m, func(p *sim.Proc) bool {
		s.Run(p, []int{0}, 0, 1, 0)
		return true
	})
	if err == nil {
		err = checkCounter(spec, m.WordAt(0), ops)
	}
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, stmExtra(s)), nil
}

func countingHerlihy(spec Spec) (Outcome, error) {
	o, err := sim.NewHerlihy(spec.Procs, 1, []sim.OpFunc{addOp})
	if err != nil {
		return Outcome{}, err
	}
	m, err := machine(spec, o.Words())
	if err != nil {
		return Outcome{}, err
	}
	if err := o.SeedInitial(m, []uint64{0}); err != nil {
		return Outcome{}, err
	}
	ops, err := loop(spec, m, func(p *sim.Proc) bool {
		o.Update(p, 0, 1, 0)
		return true
	})
	if err == nil {
		err = checkCounter(spec, m.WordAt(int(m.WordAt(0))), ops)
	}
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, herlihyExtra(o)), nil
}

func countingLock(spec Spec) (Outcome, error) {
	lk := newLock(spec)
	counter := lk.Words()
	m, err := machine(spec, counter+1)
	if err != nil {
		return Outcome{}, err
	}
	ops, err := loop(spec, m, func(p *sim.Proc) bool {
		lk.Acquire(p)
		p.Write(counter, p.Read(counter)+1)
		lk.Release(p)
		return true
	})
	if err == nil {
		err = checkCounter(spec, m.WordAt(counter), ops)
	}
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, nil), nil
}
