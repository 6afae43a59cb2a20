package sim

import "testing"

func machineFor(t *testing.T, procs, words int) *Machine {
	t.Helper()
	m, err := NewMachine(Config{
		Procs:  procs,
		Words:  words,
		Model:  NewBusModel(procs, words, DefaultBusConfig()),
		Seed:   99,
		Jitter: 1,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestLockWords(t *testing.T) {
	if w := (TTAS{}).Words(); w != 1 {
		t.Errorf("ttas words = %d, want 1", w)
	}
	if w := NewMCS(8).Words(); w != 17 {
		t.Errorf("mcs words = %d, want 17", w)
	}
}

// exerciseMutualExclusion runs a critical-section counter under the lock
// and checks exactness plus actual exclusion (a guard word that would
// expose overlapping critical sections).
func exerciseMutualExclusion(t *testing.T, mkLock func(procs int) Lock) {
	t.Helper()
	const (
		procs = 8
		each  = 80
	)
	// Memory: lock region + counter word + in-CS guard word.
	lk := mkLock(procs)
	counterAddr := lk.Words()
	guardAddr := counterAddr + 1
	m := machineFor(t, procs, lk.Words()+2)

	progs := make([]Program, procs)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				lk.Acquire(p)
				if g := p.Read(guardAddr); g != 0 {
					t.Errorf("proc %d entered an occupied critical section (guard=%d)", p.ID(), g)
				}
				p.Write(guardAddr, uint64(p.ID())+1)
				v := p.Read(counterAddr)
				p.Write(counterAddr, v+1)
				p.Write(guardAddr, 0)
				lk.Release(p)
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := m.WordAt(counterAddr); got != procs*each {
		t.Errorf("counter = %d, want %d", got, procs*each)
	}
}

func TestTTASMutualExclusion(t *testing.T) {
	exerciseMutualExclusion(t, func(int) Lock { return TTAS{} })
}

func TestMCSMutualExclusion(t *testing.T) {
	exerciseMutualExclusion(t, func(procs int) Lock { return NewMCS(procs) })
}

func TestMCSFIFOHandoff(t *testing.T) {
	// With staggered arrival, MCS must grant the lock in arrival order.
	const procs = 4
	lk := NewMCS(procs)
	m := machineFor(t, procs, lk.Words()+1)
	seqAddr := lk.Words()
	var order [procs]uint64
	progs := make([]Program, procs)
	for i := range progs {
		i := i
		progs[i] = func(p *Proc) {
			p.Think(int64(i) * 2000) // arrival order by id
			lk.Acquire(p)
			seq := p.Read(seqAddr)
			order[i] = seq
			p.Write(seqAddr, seq+1)
			p.Think(500) // hold the lock so the queue builds up
			lk.Release(p)
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < procs; i++ {
		if order[i] != uint64(i) {
			t.Errorf("proc %d got lock at position %d, want %d (FIFO)", i, order[i], i)
		}
	}
}

func TestTTASUncontendedCheap(t *testing.T) {
	// Acquire+release with no contention should take only a handful of
	// operations (read + CAS + write).
	lk := TTAS{}
	m := machineFor(t, 1, 2)
	res, err := m.Run([]Program{func(p *Proc) {
		lk.Acquire(p)
		lk.Release(p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemOps[0] > 4 {
		t.Errorf("uncontended TTAS used %d memory ops, want ≤ 4", res.MemOps[0])
	}
}

func TestLockReleaseMakesLockReacquirable(t *testing.T) {
	for _, lk := range []Lock{TTAS{}, NewMCS(1)} {
		m := machineFor(t, 1, lk.Words()+1)
		done := 0
		if _, err := m.Run([]Program{func(p *Proc) {
			for k := 0; k < 10; k++ {
				lk.Acquire(p)
				lk.Release(p)
				done++
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if done != 10 {
			t.Errorf("%T: completed %d acquire/release cycles, want 10", lk, done)
		}
	}
}
