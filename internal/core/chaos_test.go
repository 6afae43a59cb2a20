package core

// Tests for the chaos seam (chaos.go): each injection point fires at
// exactly the protocol phase it claims — ownership/locks held, installs
// not yet begun — on the engine it belongs to, and the seam costs nothing
// when no hook is registered.

import (
	"sync"
	"testing"
	"time"
)

// chaosAdd returns an updateFunc adding delta to every word.
func chaosAdd(delta uint64) updateFunc {
	return func(old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		for i, v := range old {
			nv[i] = v + delta
		}
		return nv
	}
}

// chaosRecorder collects fired events (with phase observations taken at
// fire time) under a lock: hooks run concurrently from attempt goroutines.
type chaosRecorder struct {
	mu     sync.Mutex
	events []ChaosEvent
	owned  [][]bool   // per event: Owner(addr) != nil, index-aligned with Addrs
	vals   [][]uint64 // per event: Peek(addr), index-aligned with Addrs
}

func (r *chaosRecorder) hook(m *Memory) ChaosFunc {
	return func(e ChaosEvent) {
		owned := make([]bool, len(e.Addrs))
		vals := make([]uint64, len(e.Addrs))
		for i, a := range e.Addrs {
			owned[i] = m.Owner(a) != nil
			vals[i] = m.Peek(a)
		}
		e.Addrs = append([]int(nil), e.Addrs...) // record-owned; copy to keep
		r.mu.Lock()
		r.events = append(r.events, e)
		r.owned = append(r.owned, owned)
		r.vals = append(r.vals, vals)
		r.mu.Unlock()
	}
}

func (r *chaosRecorder) byPoint(p ChaosPoint) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var idx []int
	for i, e := range r.events {
		if e.Point == p {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestChaosSTPostLockPhase: the ST point fires with every data-set word
// owned and still holding its pre-transaction value.
func TestChaosSTPostLockPhase(t *testing.T) {
	m, err := NewMemoryEngine(8, EngineST)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tryOnce(m, []int{2, 5}, chaosAdd(7)); !ok {
		t.Fatal("seeding transaction failed")
	}
	rec := &chaosRecorder{}
	m.SetChaos(rec.hook(m))
	if _, ok := tryOnce(m, []int{2, 5}, chaosAdd(10)); !ok {
		t.Fatal("uncontended attempt failed")
	}
	m.SetChaos(nil)

	fires := rec.byPoint(ChaosSTPostLock)
	if len(fires) != 1 {
		t.Fatalf("ChaosSTPostLock fired %d times, want 1", len(fires))
	}
	i := fires[0]
	e := rec.events[i]
	if e.Engine != EngineST || e.Writes != 2 {
		t.Errorf("event = %+v, want Engine=st Writes=2", e)
	}
	for j, a := range e.Addrs {
		if !rec.owned[i][j] {
			t.Errorf("addr %d not owned at st-post-lock", a)
		}
		if rec.vals[i][j] != 7 {
			t.Errorf("addr %d = %d at st-post-lock, want pre-install value 7", a, rec.vals[i][j])
		}
	}
	if got := m.Peek(2); got != 17 {
		t.Errorf("post-commit value = %d, want 17", got)
	}
	if pts := rec.byPoint(ChaosTL2PostLock); len(pts) != 0 {
		t.Errorf("TL2 point fired on ST engine")
	}
}

// TestChaosSTHelpingPhase: parking an initiator at st-post-lock makes a
// conflicting attempt fail, fire st-helping, and complete the parked
// transaction on its behalf.
func TestChaosSTHelpingPhase(t *testing.T) {
	m, err := NewMemoryEngine(8, EngineST)
	if err != nil {
		t.Fatal(err)
	}
	var (
		locked       = make(chan struct{}) // T1 reached st-post-lock
		release      = make(chan struct{}) // let T1 continue
		helpingFired = make(chan struct{})
		once, honce  sync.Once
	)
	m.SetChaos(func(e ChaosEvent) {
		switch e.Point {
		case ChaosSTPostLock:
			once.Do(func() {
				close(locked)
				<-release
			})
		case ChaosSTHelping:
			honce.Do(func() { close(helpingFired) })
		}
	})
	defer m.SetChaos(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := tryOnce(m, []int{3}, chaosAdd(1)); !ok {
			t.Error("parked initiator's attempt did not commit")
		}
	}()
	<-locked

	// T2 conflicts with the parked T1: its attempt must fail, and its
	// failure path must help T1 to completion, firing st-helping.
	if _, ok := tryOnce(m, []int{3}, chaosAdd(100)); ok {
		t.Error("conflicting attempt committed over a parked owner")
	}
	select {
	case <-helpingFired:
	case <-time.After(5 * time.Second):
		t.Fatal("st-helping never fired")
	}
	// T2's help completed T1's whole transaction while T1 is still parked.
	if got := m.Peek(3); got != 1 {
		t.Errorf("value after help = %d, want 1 (T1's commit)", got)
	}
	close(release)
	wg.Wait()
}

// TestChaosSTHelpingFromStableLoad: a stable load of a word a parked
// initiator owns is a helper too — it fires st-helping with the word it
// wanted, completes the parked transaction, and returns the value that
// transaction installed.
func TestChaosSTHelpingFromStableLoad(t *testing.T) {
	m, err := NewMemoryEngine(8, EngineST)
	if err != nil {
		t.Fatal(err)
	}
	var (
		locked  = make(chan struct{})
		release = make(chan struct{})
		once    sync.Once
		mu      sync.Mutex
		helping []ChaosEvent
	)
	m.SetChaos(func(e ChaosEvent) {
		switch e.Point {
		case ChaosSTPostLock:
			once.Do(func() {
				close(locked)
				<-release
			})
		case ChaosSTHelping:
			mu.Lock()
			helping = append(helping, ChaosEvent{Point: e.Point, Addrs: append([]int(nil), e.Addrs...), Writes: e.Writes})
			mu.Unlock()
		}
	})
	defer m.SetChaos(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := tryOnce(m, []int{3, 6}, chaosAdd(1)); !ok {
			t.Error("parked initiator's attempt did not commit")
		}
	}()
	<-locked
	if got := *m.StableLoadBox(6); got != 1 {
		t.Errorf("stable load under a parked owner = %d, want 1 (the owner's commit, completed by the load)", got)
	}
	mu.Lock()
	if len(helping) != 1 || len(helping[0].Addrs) != 1 || helping[0].Addrs[0] != 6 || helping[0].Writes != -1 {
		t.Errorf("st-helping events = %+v, want one, for word 6, Writes -1", helping)
	}
	mu.Unlock()
	close(release)
	wg.Wait()
}

// TestChaosTL2Phases: both TL2 points fire on a writing commit — locks
// held, installs not begun — in lock-then-clock order, and never on reads.
func TestChaosTL2Phases(t *testing.T) {
	m, err := NewMemoryEngine(8, EngineTL2)
	if err != nil {
		t.Fatal(err)
	}
	rec := &chaosRecorder{}
	m.SetChaos(rec.hook(m))
	defer m.SetChaos(nil)

	if _, ok := tryOnce(m, []int{1, 4}, chaosAdd(3)); !ok {
		t.Fatal("uncontended attempt failed")
	}
	lockFires := rec.byPoint(ChaosTL2PostLock)
	clockFires := rec.byPoint(ChaosTL2PostClock)
	if len(lockFires) != 1 || len(clockFires) != 1 {
		t.Fatalf("tl2-post-lock fired %d, tl2-post-clock fired %d, want 1 and 1",
			len(lockFires), len(clockFires))
	}
	if lockFires[0] >= clockFires[0] {
		t.Errorf("tl2-post-lock (event %d) did not precede tl2-post-clock (event %d)",
			lockFires[0], clockFires[0])
	}
	for _, i := range []int{lockFires[0], clockFires[0]} {
		e := rec.events[i]
		if e.Engine != EngineTL2 || e.Writes != 2 {
			t.Errorf("event %d = %+v, want Engine=tl2 Writes=2", i, e)
		}
		for j, a := range e.Addrs {
			if !rec.owned[i][j] {
				t.Errorf("addr %d not locked at %v", a, e.Point)
			}
			if rec.vals[i][j] != 0 {
				t.Errorf("addr %d = %d at %v, want pre-install value 0", a, rec.vals[i][j], e.Point)
			}
		}
	}
	if got := m.Peek(1); got != 3 {
		t.Errorf("post-commit value = %d, want 3", got)
	}

	// A read-only transaction commits without locks or clock step: no TL2
	// point may fire.
	before := len(rec.byPoint(ChaosTL2PostLock)) + len(rec.byPoint(ChaosTL2PostClock))
	if _, ok := tryOnce(m, []int{1, 4}, chaosAdd(0)); !ok {
		t.Fatal("read-only attempt failed")
	}
	after := len(rec.byPoint(ChaosTL2PostLock)) + len(rec.byPoint(ChaosTL2PostClock))
	if after != before {
		t.Errorf("TL2 chaos points fired on a read-only commit")
	}
	if pts := rec.byPoint(ChaosSTPostLock); len(pts) != 0 {
		t.Errorf("ST point fired on TL2 engine")
	}
}

// TestChaosSetNilRemoves: SetChaos(nil) returns every site to idle.
func TestChaosSetNilRemoves(t *testing.T) {
	for _, kind := range EngineKinds() {
		m, err := NewMemoryEngine(4, kind)
		if err != nil {
			t.Fatal(err)
		}
		rec := &chaosRecorder{}
		m.SetChaos(rec.hook(m))
		if _, ok := tryOnce(m, []int{0}, chaosAdd(1)); !ok {
			t.Fatal("attempt failed")
		}
		rec.mu.Lock()
		n := len(rec.events)
		rec.mu.Unlock()
		if n == 0 {
			t.Fatalf("%v: no chaos event fired with hook registered", kind)
		}
		m.SetChaos(nil)
		if _, ok := tryOnce(m, []int{0}, chaosAdd(1)); !ok {
			t.Fatal("attempt failed")
		}
		rec.mu.Lock()
		after := len(rec.events)
		rec.mu.Unlock()
		if after != n {
			t.Errorf("%v: chaos fired after SetChaos(nil)", kind)
		}
	}
}

// TestAllocsChaosUnset pins the seam's cost with no hook registered: the
// pooled attempt path stays at 0 allocs/op on both engines — each site is
// one predicted branch.
func TestAllocsChaosUnset(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	calc := func(env any, old, nv []uint64, exclusive bool) {
		for i := range old {
			nv[i] = old[i] + 1
		}
	}
	for _, kind := range EngineKinds() {
		m, err := NewMemoryEngine(8, kind)
		if err != nil {
			t.Fatal(err)
		}
		var old [2]uint64
		got := testing.AllocsPerRun(500, func() {
			rec := m.Begin(2)
			a := rec.Addrs()
			a[0], a[1] = 2, 5
			if !m.RunAttempt(rec, calc, old[:]) {
				t.Fatal("uncontended attempt failed")
			}
		})
		if got > 0 {
			t.Errorf("%v: %.1f allocs/op with chaos unset, want 0", kind, got)
		}
	}
}
