package sim

import (
	"testing"
)

func busMachine(t *testing.T, procs, words int, seed uint64) *Machine {
	t.Helper()
	m, err := NewMachine(Config{
		Procs: procs,
		Words: words,
		Model: NewBusModel(procs, words, DefaultBusConfig()),
		Seed:  seed,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestNewMachineValidation(t *testing.T) {
	model := NewBusModel(1, 1, DefaultBusConfig())
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "no procs", cfg: Config{Procs: 0, Words: 1, Model: model}},
		{name: "no words", cfg: Config{Procs: 1, Words: 0, Model: model}},
		{name: "no model", cfg: Config{Procs: 1, Words: 1}},
		{name: "bad stall period", cfg: Config{Procs: 1, Words: 1, Model: model, Stall: &StallPlan{Procs: 1, Period: 0, Duration: 5}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMachine(tt.cfg); err == nil {
				t.Errorf("NewMachine(%+v): want error", tt.cfg)
			}
		})
	}
}

func TestRunProgramCountMismatch(t *testing.T) {
	m := busMachine(t, 2, 4, 1)
	if _, err := m.Run([]Program{func(p *Proc) {}}); err == nil {
		t.Error("Run with 1 program on 2 processors: want error")
	}
}

func TestSingleProcReadWrite(t *testing.T) {
	m := busMachine(t, 1, 8, 1)
	var got uint64
	res, err := m.Run([]Program{func(p *Proc) {
		p.Write(3, 42)
		got = p.Read(3)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("read back %d, want 42", got)
	}
	if m.WordAt(3) != 42 {
		t.Errorf("WordAt(3) = %d, want 42", m.WordAt(3))
	}
	if res.MemOps[0] != 2 {
		t.Errorf("MemOps = %d, want 2", res.MemOps[0])
	}
	if res.Time <= 0 {
		t.Errorf("Time = %d, want positive", res.Time)
	}
	if res.Stopped {
		t.Error("run reported Stopped for a normal completion")
	}
}

func TestSetWordSeedsInitialState(t *testing.T) {
	m := busMachine(t, 1, 2, 1)
	m.SetWord(1, 99)
	var got uint64
	if _, err := m.Run([]Program{func(p *Proc) { got = p.Read(1) }}); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Errorf("read %d, want 99", got)
	}
}

func TestLLSCSemantics(t *testing.T) {
	// Two processors run a scripted interleaving via virtual-time control:
	// processor 1 writes between processor 0's LL and SC, so the SC must
	// fail; a retry with no interference must succeed.
	m := busMachine(t, 2, 4, 1)
	var firstSC, secondSC bool
	progs := []Program{
		func(p *Proc) {
			v := p.LL(0)
			p.Think(1000) // let the other processor write in between
			firstSC = p.SC(0, v+1)
			v = p.LL(0)
			secondSC = p.SC(0, v+1)
		},
		func(p *Proc) {
			p.Think(200) // after the LL, before the SC
			p.Write(0, 7)
		},
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if firstSC {
		t.Error("SC after an intervening write succeeded")
	}
	if !secondSC {
		t.Error("SC with no interference failed")
	}
	if got := m.WordAt(0); got != 8 {
		t.Errorf("word 0 = %d, want 8 (7 then +1)", got)
	}
}

func TestSCWithoutLLFails(t *testing.T) {
	m := busMachine(t, 1, 2, 1)
	var ok bool
	if _, err := m.Run([]Program{func(p *Proc) { ok = p.SC(0, 1) }}); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("SC without a matching LL succeeded")
	}
}

func TestSCOnDifferentAddressFails(t *testing.T) {
	m := busMachine(t, 1, 4, 1)
	var ok bool
	if _, err := m.Run([]Program{func(p *Proc) {
		p.LL(1)
		ok = p.SC(2, 5)
	}}); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("SC on a different address than the LL succeeded")
	}
}

func TestCASSemantics(t *testing.T) {
	m := busMachine(t, 1, 2, 1)
	var ok1, ok2 bool
	if _, err := m.Run([]Program{func(p *Proc) {
		ok1 = p.CAS(0, 0, 10)
		ok2 = p.CAS(0, 0, 20)
	}}); err != nil {
		t.Fatal(err)
	}
	if !ok1 || ok2 {
		t.Errorf("CAS results = (%v,%v), want (true,false)", ok1, ok2)
	}
	if got := m.WordAt(0); got != 10 {
		t.Errorf("word 0 = %d, want 10", got)
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical machines running a contended counter must produce
	// bit-identical traces (final time, op counts, final memory).
	run := func() (Result, uint64) {
		m := busMachine(t, 4, 4, 42)
		progs := make([]Program, 4)
		for i := range progs {
			progs[i] = func(p *Proc) {
				for k := 0; k < 200; k++ {
					for {
						v := p.LL(0)
						if p.SC(0, v+1) {
							break
						}
					}
				}
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.WordAt(0)
	}
	r1, w1 := run()
	r2, w2 := run()
	if w1 != w2 || w1 != 800 {
		t.Errorf("finals: %d vs %d, want 800", w1, w2)
	}
	if r1.Time != r2.Time {
		t.Errorf("times differ: %d vs %d", r1.Time, r2.Time)
	}
	for i := range r1.MemOps {
		if r1.MemOps[i] != r2.MemOps[i] {
			t.Errorf("proc %d ops differ: %d vs %d", i, r1.MemOps[i], r2.MemOps[i])
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed uint64) int64 {
		m := busMachine(t, 4, 4, seed)
		progs := make([]Program, 4)
		for i := range progs {
			progs[i] = func(p *Proc) {
				for k := 0; k < 100; k++ {
					for {
						v := p.LL(0)
						if p.SC(0, v+1) {
							break
						}
					}
				}
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	// Not guaranteed different for every pair, but for these seeds the
	// start skews differ and the traces diverge.
	if run(1) == run(999) {
		t.Skip("seeds produced identical schedules; acceptable but unexpected")
	}
}

func TestAtomicityOfSimulatedCAS(t *testing.T) {
	// A contended LL/SC counter must not lose increments.
	const (
		procs = 8
		each  = 300
	)
	m := busMachine(t, procs, 2, 7)
	progs := make([]Program, procs)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				for {
					v := p.LL(1)
					if p.SC(1, v+1) {
						break
					}
				}
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := m.WordAt(1); got != procs*each {
		t.Errorf("counter = %d, want %d", got, procs*each)
	}
}

func TestMaxTimeStopsRun(t *testing.T) {
	m, err := NewMachine(Config{
		Procs:   1,
		Words:   1,
		Model:   NewBusModel(1, 1, DefaultBusConfig()),
		MaxTime: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]Program{func(p *Proc) {
		for {
			p.Read(0)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("MaxTime did not stop the run")
	}
}

func TestStallPlanDelaysVictims(t *testing.T) {
	// Identical programs; processor 0 is stalled every 10 ops. Its final
	// virtual time must exceed the unstalled processor's substantially.
	mk := func(stall *StallPlan) (int64, int64) {
		m, err := NewMachine(Config{
			Procs: 2,
			Words: 4,
			Model: NewBusModel(2, 4, DefaultBusConfig()),
			Stall: stall,
		})
		if err != nil {
			t.Fatal(err)
		}
		times := make([]int64, 2)
		progs := make([]Program, 2)
		for i := range progs {
			i := i
			progs[i] = func(p *Proc) {
				for k := 0; k < 100; k++ {
					p.Write(2+p.ID(), uint64(k)) // disjoint words: no contention
				}
				times[i] = p.Now()
			}
		}
		if _, err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		return times[0], times[1]
	}
	t0, t1 := mk(&StallPlan{Procs: 1, Period: 10, Duration: 10_000})
	if t0 < t1+50_000 {
		t.Errorf("stalled proc time %d not ≫ unstalled %d", t0, t1)
	}
	u0, u1 := mk(nil)
	diff := u0 - u1
	if diff < 0 {
		diff = -diff
	}
	if diff > 1000 {
		t.Errorf("unstalled procs diverged by %d cycles", diff)
	}
}

func TestThinkAdvancesOnlyLocalClock(t *testing.T) {
	m := busMachine(t, 1, 1, 1)
	var before, after int64
	if _, err := m.Run([]Program{func(p *Proc) {
		before = p.Now()
		p.Think(500)
		after = p.Now()
		p.Think(-10) // negative is ignored
		if p.Now() != after {
			t.Error("negative Think changed the clock")
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if after-before != 500 {
		t.Errorf("Think advanced %d, want 500", after-before)
	}
}

func TestRandIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []uint64 {
		m := busMachine(t, 1, 1, seed)
		var out []uint64
		if _, err := m.Run([]Program{func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, p.Rand())
				p.Read(0) // advance op count so draws differ
			}
		}}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(11), draw(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
	}
	c := draw(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical Rand streams")
	}
}
