package sim

import "testing"

// STM test op registry:
//
//	op 0: add arg to every word in the data set
//	op 1: transfer arg from word 0 to word 1 of the data set (guarded)
var stmTestOps = []OpFunc{
	func(arg, _ uint64, old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		for i, v := range old {
			nv[i] = v + arg
		}
		return nv
	},
	func(arg, _ uint64, old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		copy(nv, old)
		if len(old) == 2 && old[0] >= arg && old[0] != emptyOld {
			nv[0] = old[0] - arg
			nv[1] = old[1] + arg
		}
		return nv
	},
}

type harness struct {
	m *Machine
	s *STM
}

func newHarness(t *testing.T, procs, dataWords, maxK int, variant Variant, stall *StallPlan, useNet bool) *harness {
	t.Helper()
	s, err := NewSTM(STMConfig{
		Procs:     procs,
		DataWords: dataWords,
		MaxK:      maxK,
		Ops:       stmTestOps,
		Variant:   variant,
	})
	if err != nil {
		t.Fatalf("NewSTM: %v", err)
	}
	words := s.Words()
	var model CostModel
	if useNet {
		model = NewNetModel(procs, DefaultNetConfig())
	} else {
		model = NewBusModel(procs, words, DefaultBusConfig())
	}
	m, err := NewMachine(Config{
		Procs:  procs,
		Words:  words,
		Model:  model,
		Seed:   1234,
		Jitter: 1,
		Stall:  stall,
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return &harness{m: m, s: s}
}

// checkOwnershipsFree asserts every ownership word is 0 after a run.
func (h *harness) checkOwnershipsFree(t *testing.T) {
	t.Helper()
	for i := 0; i < h.s.cfg.DataWords; i++ {
		if w := h.m.WordAt(h.s.ownAddr(i)); w != 0 {
			t.Errorf("ownership word %d = %#x after run, want 0", i, w)
		}
	}
}

func TestNewSTMValidation(t *testing.T) {
	base := STMConfig{Procs: 1, DataWords: 4, MaxK: 2, Ops: stmTestOps}
	bad := []STMConfig{
		{Procs: 0, DataWords: 4, MaxK: 2, Ops: stmTestOps},
		{Procs: 1, DataWords: 0, MaxK: 2, Ops: stmTestOps},
		{Procs: 1, DataWords: 4, MaxK: 0, Ops: stmTestOps},
		{Procs: 1, DataWords: 4, MaxK: 5, Ops: stmTestOps},
		{Procs: 1, DataWords: 4, MaxK: 2},
	}
	for i, cfg := range bad {
		if _, err := NewSTM(cfg); err == nil {
			t.Errorf("config %d: want error, got nil", i)
		}
	}
	if _, err := NewSTM(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSTMWordsLayout(t *testing.T) {
	s, err := NewSTM(STMConfig{Procs: 3, DataWords: 10, MaxK: 2, Ops: stmTestOps})
	if err != nil {
		t.Fatal(err)
	}
	wantRec := recHeaderWords + 2*2
	if got, want := s.Words(), 2*10+3*wantRec; got != want {
		t.Errorf("Words() = %d, want %d", got, want)
	}
	if s.ownAddr(0) != 10 {
		t.Errorf("ownAddr(0) = %d, want 10", s.ownAddr(0))
	}
	if s.recBase(0) != 20 || s.recBase(1) != 20+wantRec {
		t.Errorf("recBase = %d,%d", s.recBase(0), s.recBase(1))
	}
}

func TestOwnershipPacking(t *testing.T) {
	for _, tc := range []struct {
		rb  int
		ver uint64
	}{{1, 0}, {4096, 7}, {1 << 20, 1<<32 - 1}, {25, 1 << 40}} {
		w := packOwner(tc.rb, tc.ver)
		rb, v32 := unpackOwner(w)
		if rb != tc.rb || v32 != tc.ver&ownVersionMask {
			t.Errorf("pack/unpack(%d,%d) = (%d,%d)", tc.rb, tc.ver, rb, v32)
		}
	}
}

func TestStatusEncoding(t *testing.T) {
	for _, idx := range []int{0, 3, 1 << 10} {
		st := failureAt(idx)
		if !isFailure(st) || failureIndex(st) != idx {
			t.Errorf("failure encoding broken for %d", idx)
		}
	}
	if isFailure(statusNull) || isFailure(statusSuccess) {
		t.Error("Null/Success classified as failure")
	}
}

func TestCountingSingleProc(t *testing.T) {
	h := newHarness(t, 1, 4, 1, Variant{}, nil, false)
	progs := []Program{func(p *Proc) {
		for i := 0; i < 50; i++ {
			old := h.s.Run(p, []int{2}, 0, 1, 0)
			if old[0] != uint64(i) {
				t.Errorf("increment %d observed old %d", i, old[0])
			}
		}
	}}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := h.m.WordAt(2); got != 50 {
		t.Errorf("counter = %d, want 50", got)
	}
	st := h.s.Stats()
	if st.Commits != 50 || st.Failures != 0 {
		t.Errorf("stats = %+v, want 50 commits, 0 failures", st)
	}
	h.checkOwnershipsFree(t)
}

func testCountingContended(t *testing.T, variant Variant, useNet bool) {
	t.Helper()
	const (
		procs = 8
		each  = 60
	)
	h := newHarness(t, procs, 2, 1, variant, nil, useNet)
	progs := make([]Program, procs)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				h.s.Run(p, []int{0}, 0, 1, 0)
			}
		}
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := h.m.WordAt(0); got != procs*each {
		t.Errorf("counter = %d, want %d", got, procs*each)
	}
	st := h.s.Stats()
	if st.Commits != procs*each {
		t.Errorf("commits = %d, want %d", st.Commits, procs*each)
	}
	h.checkOwnershipsFree(t)
}

func TestCountingContendedBus(t *testing.T) { testCountingContended(t, Variant{}, false) }
func TestCountingContendedNet(t *testing.T) { testCountingContended(t, Variant{}, true) }
func TestCountingNoHelping(t *testing.T)    { testCountingContended(t, Variant{NoHelping: true}, false) }
func TestCountingUnsorted(t *testing.T)     { testCountingContended(t, Variant{Unsorted: true}, false) }
func TestCountingNoHelpUnsorted(t *testing.T) {
	testCountingContended(t, Variant{NoHelping: true, Unsorted: true}, false)
}

func TestTransfersConserveTotal(t *testing.T) {
	const (
		procs    = 6
		accounts = 8
		each     = 40
		initial  = 1000
	)
	h := newHarness(t, procs, accounts, 2, Variant{}, nil, false)
	for i := 0; i < accounts; i++ {
		h.m.SetWord(i, initial)
	}
	progs := make([]Program, procs)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				a := int(p.Rand() % accounts)
				b := int(p.Rand() % accounts)
				if a == b {
					b = (a + 1) % accounts
				}
				amt := p.Rand() % 10
				h.s.Run(p, []int{a, b}, 1, amt, 0)
			}
		}
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i := 0; i < accounts; i++ {
		sum += h.m.WordAt(i)
	}
	if sum != accounts*initial {
		t.Errorf("total = %d, want %d", sum, accounts*initial)
	}
	h.checkOwnershipsFree(t)
}

func TestOldValuesCallerOrder(t *testing.T) {
	h := newHarness(t, 1, 8, 2, Variant{}, nil, false)
	h.m.SetWord(3, 33)
	h.m.SetWord(6, 66)
	progs := []Program{func(p *Proc) {
		// Descending caller order must come back descending.
		old := h.s.Run(p, []int{6, 3}, 0, 0, 0)
		if old[0] != 66 || old[1] != 33 {
			t.Errorf("old = %v, want [66 33]", old)
		}
	}}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
}

// stalledOwnerProgram builds a program that starts a transaction adding
// `delta` to data word 0, acquires its ownership, parks for stallDur cycles
// mid-transaction, then resumes and completes — the canonical "stalled
// owner" the cooperative method exists for.
func stalledOwnerProgram(s *STM, stallDur int64, delta uint64) Program {
	return func(p *Proc) {
		rb := s.recBase(p.ID())
		p.Write(rb+offSize, 1)
		p.Write(rb+offOpcode, 0)
		p.Write(rb+offOpArg, delta)
		p.Write(rb+recHeaderWords, 0) // data word 0
		version := p.Read(rb+offVersion) + 1
		p.Write(rb+offVersion, version)
		p.Write(rb+offStatus, statusNull)
		p.Write(rb+offAllWritten, 0)
		p.Write(rb+recHeaderWords+s.cfg.MaxK, emptyOld)
		p.Write(rb+offStable, 1)
		s.stats.Attempts++

		s.acquireOwnerships(p, rb, version, []int{0})
		p.Think(stallDur) // parked while holding the claim on word 0

		s.transaction(p, rb, version, []int{0}, true)
		if p.Read(rb+offStatus) == statusSuccess {
			s.stats.Commits++
		} else {
			s.stats.Failures++
		}
		p.Write(rb+offStable, 0)
	}
}

// TestHelpingUnblocksStalledOwner is the non-blocking property end to end:
// processor 0 acquires ownership of the counter and parks for a huge
// interval, yet processor 1 finishes all its increments in a tiny fraction
// of the stall by helping the parked transaction to completion.
func TestHelpingUnblocksStalledOwner(t *testing.T) {
	const (
		each     = 30
		stallDur = int64(50_000_000)
	)
	h := newHarness(t, 2, 2, 1, Variant{}, nil, false)
	var finish1 int64
	progs := []Program{
		stalledOwnerProgram(h.s, stallDur, 100),
		func(p *Proc) {
			p.Think(2000) // let the owner claim first
			for k := 0; k < each; k++ {
				h.s.Run(p, []int{0}, 0, 1, 0)
			}
			finish1 = p.Now()
		},
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := h.m.WordAt(0); got != 100+each {
		t.Errorf("counter = %d, want %d (stalled tx + increments)", got, 100+each)
	}
	if finish1 >= stallDur {
		t.Errorf("proc 1 finished at %d, blocked across the stall (helping failed)", finish1)
	}
	if h.s.Stats().Helps == 0 {
		t.Error("no helps recorded despite a parked owner")
	}
	h.checkOwnershipsFree(t)
}

// TestNoHelpingBlocksOnStalledOwner is the converse ablation: with helping
// disabled, the conflicting processor cannot pass the parked owner and its
// finish time is dominated by the stall. Correctness still holds.
func TestNoHelpingBlocksOnStalledOwner(t *testing.T) {
	const (
		each     = 10
		stallDur = int64(1_000_000)
	)
	h := newHarness(t, 2, 2, 1, Variant{NoHelping: true}, nil, false)
	var finish1 int64
	progs := []Program{
		stalledOwnerProgram(h.s, stallDur, 100),
		func(p *Proc) {
			p.Think(2000) // let the owner claim first
			for k := 0; k < each; k++ {
				h.s.Run(p, []int{0}, 0, 1, 0)
			}
			finish1 = p.Now()
		},
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := h.m.WordAt(0); got != 100+each {
		t.Errorf("counter = %d, want %d (correctness must survive)", got, 100+each)
	}
	if finish1 < stallDur {
		t.Errorf("proc 1 finished at %d < stall %d; expected it to block on the parked owner",
			finish1, stallDur)
	}
	h.checkOwnershipsFree(t)
}

// TestStallPlanPreemptionCorrectness runs the counting workload with the
// machine-level preemption model switched on: periodic long stalls must
// never break exactness, and with helping enabled the unstalled processors
// must never be blocked across a full stall window.
func TestStallPlanPreemptionCorrectness(t *testing.T) {
	const (
		procs    = 4
		each     = 30
		stallDur = int64(200_000)
	)
	h := newHarness(t, procs, 2, 1, Variant{},
		&StallPlan{Procs: 1, Period: 7, Duration: stallDur}, false)
	progs := make([]Program, procs)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				h.s.Run(p, []int{0}, 0, 1, 0)
			}
		}
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := h.m.WordAt(0); got != procs*each {
		t.Errorf("counter = %d, want %d", got, procs*each)
	}
	h.checkOwnershipsFree(t)
}

func TestDisjointDataSetsNoFailures(t *testing.T) {
	const procs = 4
	h := newHarness(t, procs, procs, 1, Variant{}, nil, false)
	progs := make([]Program, procs)
	for i := range progs {
		i := i
		progs[i] = func(p *Proc) {
			for k := 0; k < 40; k++ {
				h.s.Run(p, []int{i}, 0, 1, 0)
			}
		}
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	st := h.s.Stats()
	if st.Failures != 0 {
		t.Errorf("failures = %d, want 0 for disjoint data sets", st.Failures)
	}
	for i := 0; i < procs; i++ {
		if got := h.m.WordAt(i); got != 40 {
			t.Errorf("word %d = %d, want 40", i, got)
		}
	}
}

func TestLatencies(t *testing.T) {
	h := newHarness(t, 2, 2, 1, Variant{}, nil, false)
	progs := []Program{
		func(p *Proc) {
			for k := 0; k < 20; k++ {
				h.s.Run(p, []int{0}, 0, 1, 0)
			}
		},
		func(p *Proc) {
			for k := 0; k < 20; k++ {
				h.s.Run(p, []int{0}, 0, 1, 0)
			}
		},
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	lat := h.s.Latencies()
	if len(lat) != 40 {
		t.Errorf("latency samples = %d, want 40", len(lat))
	}
	for i, l := range lat {
		if l <= 0 {
			t.Errorf("latency %d = %v, want positive", i, l)
		}
	}
}

func TestMultiWordDataSetsWithOverlap(t *testing.T) {
	// Transactions over overlapping triples; every word's final value must
	// equal the number of transactions that included it.
	const procs = 4
	h := newHarness(t, procs, 6, 3, Variant{}, nil, false)
	sets := [][]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	const each = 25
	progs := make([]Program, procs)
	for i := range progs {
		i := i
		progs[i] = func(p *Proc) {
			for k := 0; k < each; k++ {
				h.s.Run(p, sets[i], 0, 1, 0)
			}
		}
	}
	if _, err := h.m.Run(progs); err != nil {
		t.Fatal(err)
	}
	want := []uint64{each, 2 * each, 3 * each, 3 * each, 2 * each, each}
	for i, w := range want {
		if got := h.m.WordAt(i); got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
	h.checkOwnershipsFree(t)
}
