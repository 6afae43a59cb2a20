package sim

import "testing"

// Herlihy test ops: 0 = add arg to every state word; 1 = bounded enqueue/dequeue ops on
// a queue state [head, tail, slots...], selected by arg2 (0 enq, 1 deq).
var herlihyTestOps = []OpFunc{
	func(arg, _ uint64, old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		for i, v := range old {
			nv[i] = v + arg
		}
		return nv
	},
	func(arg, arg2 uint64, old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		copy(nv, old)
		if len(old) < 3 {
			return nv
		}
		capacity := uint64(len(old) - 2)
		head, tail := old[0], old[1]
		if tail-head > capacity { // torn state; attempt will fail anyway
			return nv
		}
		if arg2 == 0 { // enqueue
			if tail-head < capacity {
				nv[2+int(tail%capacity)] = arg
				nv[1] = tail + 1
			}
		} else { // dequeue
			if tail != head {
				nv[0] = head + 1
			}
		}
		return nv
	},
}

func newObj(t *testing.T, procs, stateWords int) (*Herlihy, *Machine) {
	t.Helper()
	o, err := NewHerlihy(procs, stateWords, herlihyTestOps)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := NewMachine(Config{
		Procs:  procs,
		Words:  o.Words(),
		Model:  NewBusModel(procs, o.Words(), DefaultBusConfig()),
		Seed:   7,
		Jitter: 1,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := o.SeedInitial(m, make([]uint64, stateWords)); err != nil {
		t.Fatalf("SeedInitial: %v", err)
	}
	return o, m
}

func TestNewHerlihyValidation(t *testing.T) {
	bad := []struct {
		procs, stateWords int
		ops               []OpFunc
	}{
		{0, 1, herlihyTestOps},
		{1, 0, herlihyTestOps},
		{1, 1, nil},
	}
	for i, c := range bad {
		if _, err := NewHerlihy(c.procs, c.stateWords, c.ops); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestSeedInitialValidatesLength(t *testing.T) {
	o, err := NewHerlihy(1, 3, herlihyTestOps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(Config{
		Procs: 1, Words: o.Words(),
		Model: NewBusModel(1, o.Words(), DefaultBusConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SeedInitial(m, []uint64{1}); err == nil {
		t.Error("short initial state: want error")
	}
}

func TestHerlihyWordsLayout(t *testing.T) {
	o, err := NewHerlihy(3, 4, herlihyTestOps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.Words(), 1+(2*3+1)*4; got != want {
		t.Errorf("Words() = %d, want %d", got, want)
	}
}

func TestSingleProcCounter(t *testing.T) {
	o, m := newObj(t, 1, 1)
	if _, err := m.Run([]Program{func(p *Proc) {
		for i := 0; i < 40; i++ {
			old := o.Update(p, 0, 1, 0)
			if old[0] != uint64(i) {
				t.Errorf("update %d observed old %d", i, old[0])
			}
		}
	}}); err != nil {
		t.Fatal(err)
	}
	root := int(m.WordAt(0))
	if got := m.WordAt(root); got != 40 {
		t.Errorf("counter = %d, want 40", got)
	}
	st := o.Stats()
	if st.Commits != 40 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestContendedCounterExact(t *testing.T) {
	const (
		procs = 8
		each  = 50
	)
	o, m := newObj(t, procs, 1)
	progs := make([]Program, procs)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				o.Update(p, 0, 1, 0)
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	root := int(m.WordAt(0))
	if got := m.WordAt(root); got != procs*each {
		t.Errorf("counter = %d, want %d", got, procs*each)
	}
	st := o.Stats()
	if st.Commits != procs*each {
		t.Errorf("commits = %d, want %d", st.Commits, procs*each)
	}
	if st.Attempts != st.Commits+st.Failures {
		t.Errorf("attempts=%d != commits+failures=%d", st.Attempts, st.Commits+st.Failures)
	}
}

func TestQueueStateMachine(t *testing.T) {
	// 2 procs hammer a capacity-4 queue state: one enqueues k, one
	// dequeues. Conservation: enq count - deq count == final length.
	const (
		procs = 2
		each  = 60
	)
	o, m := newObj(t, procs, 2+4)
	progs := []Program{
		func(p *Proc) {
			for k := 0; k < each; k++ {
				o.Update(p, 1, uint64(k), 0) // enqueue (may be full: no-op)
			}
		},
		func(p *Proc) {
			for k := 0; k < each; k++ {
				o.Update(p, 1, 0, 1) // dequeue (may be empty: no-op)
			}
		},
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	root := int(m.WordAt(0))
	head, tail := m.WordAt(root), m.WordAt(root+1)
	if tail < head || tail-head > 4 {
		t.Errorf("final queue state invalid: head=%d tail=%d", head, tail)
	}
}

func TestCopyCostScalesWithStateSize(t *testing.T) {
	// The defining property: per-op memory traffic grows with object size.
	opsFor := func(stateWords int) int64 {
		o, m := newObj(t, 1, stateWords)
		res, err := m.Run([]Program{func(p *Proc) {
			for i := 0; i < 10; i++ {
				o.Update(p, 0, 1, 0)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res.MemOps[0]
	}
	small, large := opsFor(1), opsFor(32)
	if large < small+10*31 {
		t.Errorf("copy cost did not scale: %d ops for 1 word, %d for 32", small, large)
	}
}
