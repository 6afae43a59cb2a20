package core

// Tests for the record pool's limbo (pool.go): a record whose attempt ends
// with a helper still pinned is parked, not dropped, and comes back — its
// staged references released — once the helper has left, never before.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type resetSpy struct{ resets int }

func (s *resetSpy) ResetForPool() { s.resets++ }

func TestLimboReclaimsOncePinsDrain(t *testing.T) {
	m, err := NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	rec := armedRec(m, []int{1}, chaosAdd(1))
	spy := &resetSpy{}
	rec.SetEnv(spy)
	if !rec.pin() { // a helper that outlasts the attempt
		t.Fatal("pin of an unsealed record failed")
	}
	if !m.RunAttempt(rec, rec.calc, nil) {
		t.Fatal("uncontended attempt failed")
	}
	if got := m.limbo.parked.Load(); got != 1 {
		t.Fatalf("parked = %d after an attempt that ended pinned, want 1", got)
	}
	if rec.pin() {
		t.Fatal("a parked record accepted a new helper: it is sealed")
	}
	if spy.resets != 0 {
		t.Fatal("a record with a helper pinned was reset")
	}

	// Still pinned: Begin must look elsewhere.
	other := m.Begin(1)
	if other == rec {
		t.Fatal("Begin handed out a record a helper is still pinned to")
	}
	copy(other.Addrs(), []int{2})
	m.RunAttempt(other, calcOf(chaosAdd(1)), nil)

	rec.unpin()
	got := m.Begin(1)
	if got != rec {
		t.Fatal("Begin did not reclaim the parked record once its helper left")
	}
	if m.limbo.parked.Load() != 0 || spy.resets != 1 || got.calc != nil {
		t.Errorf("reclaimed record: parked=%d resets=%d calc-cleared=%v, want 0, 1, true",
			m.limbo.parked.Load(), spy.resets, got.calc == nil)
	}
	copy(got.Addrs(), []int{1})
	if !m.RunAttempt(got, calcOf(chaosAdd(1)), nil) || m.Peek(1) != 2 {
		t.Errorf("reclaimed record's attempt: word 1 = %d, want 2", m.Peek(1))
	}
}

func TestLimboOverflowLeavesRecordsToGC(t *testing.T) {
	m, err := NewMemory(4)
	if err != nil {
		t.Fatal(err)
	}
	const n = len(m.limbo.slots) + 3
	var recs []*Rec
	for i := 0; i < n; i++ {
		rec := armedRec(m, []int{0}, chaosAdd(1))
		rec.pin()
		recs = append(recs, rec)
		if !m.RunAttempt(rec, rec.calc, nil) {
			t.Fatal("uncontended attempt failed")
		}
	}
	if got := int(m.limbo.parked.Load()); got != len(m.limbo.slots) {
		t.Fatalf("parked = %d after %d pinned attempts, want limbo's %d", got, n, len(m.limbo.slots))
	}
	for _, rec := range recs {
		rec.unpin()
	}
	seen := map[*Rec]bool{}
	for i := 0; i < len(m.limbo.slots); i++ {
		rec := m.Begin(1)
		if seen[rec] {
			t.Fatal("a parked record was handed out twice")
		}
		seen[rec] = true
	}
	if m.limbo.parked.Load() != 0 {
		t.Errorf("parked = %d after reclaiming every slot", m.limbo.parked.Load())
	}
	if got := m.Peek(0); got != uint64(n) {
		t.Errorf("word 0 = %d, want %d", got, n)
	}
}

// TestLimboNeverRearmsAPinnedRecord runs park and reclaim against each
// other: writers draw and run records as fast as they can while helpers
// that overstay — they pin whatever record owns a word and hold the pin
// across the end of its attempt — push those records into limbo. A record
// with a valid pin on it must never be re-armed: its version stays put and
// (under -race) nothing writes the fields the helper reads. This is the
// interleaving a pins check made before the take gets wrong: the record
// can be reclaimed, run, pinned and parked in the same slot in between.
func TestLimboNeverRearmsAPinnedRecord(t *testing.T) {
	const words = 4
	m, err := NewMemory(words)
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop             atomic.Bool
		commits, rearmed atomic.Uint64
		sawParked        atomic.Bool
		wg               sync.WaitGroup
	)
	add1 := calcOf(chaosAdd(1))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				rec := m.Begin(2)
				a := rec.Addrs()
				a[0], a[1] = w%2, 2+w%2
				if m.RunAttempt(rec, add1, nil) {
					commits.Add(1)
				}
			}
		}(w)
	}
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for loc := 0; !stop.Load(); loc = (loc + 1) % words {
				rec := m.Owner(loc)
				if rec == nil || !rec.pin() {
					continue
				}
				v, k := rec.version.Load(), len(rec.addrs)
				for i := 0; i < 3; i++ {
					runtime.Gosched()
				}
				if rec.version.Load() != v || len(rec.addrs) != k {
					rearmed.Add(1)
				}
				if m.limbo.parked.Load() > 0 {
					sawParked.Store(true)
				}
				rec.unpin()
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := rearmed.Load(); n != 0 {
		t.Errorf("%d records were re-armed with a helper pinned to them", n)
	}
	if !sawParked.Load() {
		t.Error("no record was ever parked: the test exercised nothing")
	}
	var sum uint64
	for loc := 0; loc < words; loc++ {
		sum += m.Peek(loc)
	}
	if want := 2 * commits.Load(); sum != want {
		t.Errorf("words sum to %d after %d two-word commits, want %d", sum, commits.Load(), want)
	}
}

// TestLimboTakeThenCheck drives the one interleaving reclaim's order of
// steps exists for, with nothing else going on so that it comes up often:
// one goroutine cycles a single record through reclaim → re-arm → unseal →
// helper pins → attempt ends → parked → helper leaves, while another calls
// reclaim in a loop. The second must never be handed the record while the
// first one's pin is held — which a pins check made before the take allows,
// since a whole cycle fits between that check and the take.
func TestLimboTakeThenCheck(t *testing.T) {
	m, err := NewMemory(1)
	if err != nil {
		t.Fatal(err)
	}
	rec := m.Begin(1)
	rec.sealed.Store(true)
	m.park(rec)

	var (
		stop        atomic.Bool
		held        atomic.Bool // the cycler's pin is on the record
		cycles, bad atomic.Uint64
		wg          sync.WaitGroup
	)
	wg.Add(2)
	go func() { // an attempt whose helper outlasts it, over and over
		defer wg.Done()
		for !stop.Load() {
			r := m.reclaim()
			if r == nil {
				continue
			}
			r.arm(1)
			r.sealed.Store(false)
			if !r.pin() {
				t.Error("pin of an unsealed record failed")
			}
			held.Store(true)
			r.sealed.Store(true) // recycle, minus the pool: the record must stay in play
			m.park(r)
			held.Store(false)
			r.unpin()
			cycles.Add(1)
		}
	}()
	go func() { // a Begin looking for a parked record
		defer wg.Done()
		for !stop.Load() {
			r := m.reclaim()
			if r == nil {
				continue
			}
			if held.Load() {
				bad.Add(1)
			}
			m.park(r)
		}
	}()
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("reclaim handed out a pinned record %d times in %d cycles", n, cycles.Load())
	}
	if cycles.Load() == 0 {
		t.Error("the record never went round: the test exercised nothing")
	}
}
