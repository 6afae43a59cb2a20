package bench

import (
	"fmt"

	"github.com/stm-go/stm/internal/sim"
)

// runQueue is the paper's doubly-linked queue benchmark: half the
// processors enqueue at the tail, half dequeue at the head, on a bounded
// queue (a single processor alternates roles). Transactions touch three
// words — head, tail, and one slot — so the methods are exercised on
// multi-word data sets, and producers/consumers genuinely conflict only
// through the shared end words (and through the same slot when the queue
// is short). Herlihy's method must copy the entire queue per operation,
// which is the contrast the paper draws.
func runQueue(spec Spec) (Outcome, error) {
	if spec.QueueCap == 0 {
		spec.QueueCap = 32
	}
	if spec.QueueCap < 1 {
		return Outcome{}, fmt.Errorf("workload: QueueCap must be ≥ 1, got %d", spec.QueueCap)
	}
	switch spec.Method {
	case MethodSTM, MethodSTMNoHelp, MethodSTMUnsorted:
		return queueSTM(spec)
	case MethodHerlihy:
		return queueHerlihy(spec)
	case MethodTTAS, MethodMCS:
		return queueLock(spec)
	default:
		return Outcome{}, fmt.Errorf("workload: unknown method %q", spec.Method)
	}
}

// Queue layout inside the STM data region / lock-protected region /
// Herlihy state block: word 0 = head index, word 1 = tail index, words
// 2..2+cap-1 = slots. Indices increase monotonically; index%cap names the
// slot; tail-head is the length.

// queueOps returns the STM op functions for the queue:
//
//	opcode 0 — enqueue(v=arg, expectedTail=arg2): data set [head, tail, slot(expectedTail)]
//	opcode 1 — dequeue(expectedHead=arg2):        data set [head, tail, slot(expectedHead)]
//
// Both validate the optimistic pre-read (arg2) against the transactional
// snapshot and otherwise commit a no-op, which the driver detects from the
// returned old values and retries with a fresh pre-read.
func queueOps(capacity uint64) []sim.OpFunc {
	return []sim.OpFunc{
		func(arg, arg2 uint64, old []uint64) []uint64 {
			nv := make([]uint64, len(old))
			copy(nv, old)
			if len(old) != 3 {
				return nv
			}
			head, tail := old[0], old[1]
			if tail != arg2 || tail-head >= capacity {
				return nv
			}
			nv[1] = tail + 1
			nv[2] = arg
			return nv
		},
		func(_, arg2 uint64, old []uint64) []uint64 {
			nv := make([]uint64, len(old))
			copy(nv, old)
			if len(old) != 3 {
				return nv
			}
			head, tail := old[0], old[1]
			if head != arg2 || tail == head {
				return nv
			}
			nv[0] = head + 1
			return nv
		},
	}
}

// queueLoop drives a queue on m: enq and deq each try one operation and
// report whether it took effect (false = queue full/empty). Even processors
// enqueue and odd ones dequeue, pausing when their end is full or empty; a
// lone processor alternates. queueLoop then checks the final head and tail,
// read at head and head+1, against the operations counted.
func queueLoop(spec Spec, m *sim.Machine, head func() int, enq, deq func(p *sim.Proc) bool) (int64, error) {
	var enqs, deqs int64
	lone := 0 // the next role of a lone processor
	ops, err := loop(spec, m, func(p *sim.Proc) bool {
		role := p.ID() % 2
		if spec.Procs == 1 {
			role, lone = lone, lone^1
		}
		if role == 0 && enq(p) {
			enqs++
			return true
		}
		if role == 1 && deq(p) {
			deqs++
			return true
		}
		if spec.Procs > 1 {
			p.Think(64) // full or empty: let the other side catch up
		}
		return false
	})
	if err != nil {
		return 0, err
	}
	h, t := int64(m.WordAt(head())), int64(m.WordAt(head()+1))
	if h > t {
		return 0, fmt.Errorf("workload: queue head %d > tail %d", h, t)
	}
	if t-h > int64(spec.QueueCap) {
		return 0, fmt.Errorf("workload: queue length %d exceeds capacity %d", t-h, spec.QueueCap)
	}
	slack := int64(spec.Procs)
	if err := slackCheck("queue enqueues", t, enqs, slack); err != nil {
		return 0, err
	}
	return ops, slackCheck("queue dequeues", h, deqs, slack)
}

func queueSTM(spec Spec) (Outcome, error) {
	capacity := uint64(spec.QueueCap)
	s, m, err := newSTM(spec, 2+spec.QueueCap, 3, queueOps(capacity))
	if err != nil {
		return Outcome{}, err
	}
	enq := func(p *sim.Proc) bool {
		for {
			tail := p.Read(1) // optimistic pre-read
			slot := 2 + int(tail%capacity)
			old := s.Run(p, []int{0, 1, slot}, 0, p.Rand()>>1, tail)
			if old[1] != tail {
				continue // stale pre-read; rebuild the data set
			}
			return old[1]-old[0] < capacity
		}
	}
	deq := func(p *sim.Proc) bool {
		for {
			head := p.Read(0)
			slot := 2 + int(head%capacity)
			old := s.Run(p, []int{0, 1, slot}, 1, 0, head)
			if old[0] != head {
				continue
			}
			return old[1] != old[0]
		}
	}
	ops, err := queueLoop(spec, m, func() int { return 0 }, enq, deq)
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, stmExtra(s)), nil
}

func queueHerlihy(spec Spec) (Outcome, error) {
	capacity := uint64(spec.QueueCap)
	state := 2 + spec.QueueCap
	o, err := sim.NewHerlihy(spec.Procs, state, []sim.OpFunc{
		// opcode 0: arg2 selects enqueue (0, value=arg) or dequeue (1).
		func(arg, arg2 uint64, old []uint64) []uint64 {
			nv := make([]uint64, len(old))
			copy(nv, old)
			if len(old) < 3 {
				return nv
			}
			head, tail := old[0], old[1]
			if tail-head > capacity {
				return nv // torn state; the SC will fail
			}
			if arg2 == 0 {
				if tail-head < capacity {
					nv[2+int(tail%capacity)] = arg
					nv[1] = tail + 1
				}
			} else if tail != head {
				nv[0] = head + 1
			}
			return nv
		},
	})
	if err != nil {
		return Outcome{}, err
	}
	m, err := machine(spec, o.Words())
	if err != nil {
		return Outcome{}, err
	}
	if err := o.SeedInitial(m, make([]uint64, state)); err != nil {
		return Outcome{}, err
	}
	enq := func(p *sim.Proc) bool {
		old := o.Update(p, 0, p.Rand()>>1, 0)
		return old[1]-old[0] < capacity
	}
	deq := func(p *sim.Proc) bool {
		old := o.Update(p, 0, 0, 1)
		return old[1] != old[0]
	}
	ops, err := queueLoop(spec, m, func() int { return int(m.WordAt(0)) }, enq, deq)
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, herlihyExtra(o)), nil
}

func queueLock(spec Spec) (Outcome, error) {
	capacity := uint64(spec.QueueCap)
	lk := newLock(spec)
	qBase := lk.Words() // head, tail, slots...
	m, err := machine(spec, qBase+2+spec.QueueCap)
	if err != nil {
		return Outcome{}, err
	}
	enq := func(p *sim.Proc) bool {
		lk.Acquire(p)
		head, tail := p.Read(qBase), p.Read(qBase+1)
		ok := tail-head < capacity
		if ok {
			p.Write(qBase+2+int(tail%capacity), p.Rand()>>1)
			p.Write(qBase+1, tail+1)
		}
		lk.Release(p)
		return ok
	}
	deq := func(p *sim.Proc) bool {
		lk.Acquire(p)
		head, tail := p.Read(qBase), p.Read(qBase+1)
		ok := tail != head
		if ok {
			p.Read(qBase + 2 + int(head%capacity)) // consume the value
			p.Write(qBase, head+1)
		}
		lk.Release(p)
		return ok
	}
	ops, err := queueLoop(spec, m, func() int { return qBase }, enq, deq)
	if err != nil {
		return Outcome{}, err
	}
	return outcome(spec, m, ops, nil), nil
}
