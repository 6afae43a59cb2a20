package stmobs_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
)

func TestFlightRecorderOrderAndWrap(t *testing.T) {
	f := stmobs.NewFlightRecorder(16)
	if f.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", f.Cap())
	}
	for i := 0; i < 40; i++ {
		f.Record(1, uint64(i), uint64(i*2), 0)
	}
	if f.Total() != 40 {
		t.Errorf("Total = %d, want 40", f.Total())
	}
	events := f.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want 16", len(events))
	}
	// Oldest first: the newest 16 of the 40 recorded.
	for i, e := range events {
		if want := uint64(24 + i); e.Conn != want || e.A != 2*want {
			t.Errorf("events[%d] = conn=%d a=%d, want conn=%d a=%d", i, e.Conn, e.A, want, 2*want)
		}
	}
}

func TestFlightRecorderCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024},
	} {
		if got := stmobs.NewFlightRecorder(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewFlightRecorder(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := stmobs.NewFlightRecorder(16)
	f.Record(7, 1, 2, 3)
	var b strings.Builder
	if err := f.Dump(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "flight recorder: 1 events retained") {
		t.Errorf("dump header missing: %q", out)
	}
	if !strings.Contains(out, "kind=0x0007 conn=1 a=2 b=3") {
		t.Errorf("dump body missing default rendering: %q", out)
	}
	// A producer vocabulary replaces the default rendering.
	b.Reset()
	_ = f.Dump(&b, func(e stmobs.FlightEvent) string { return "custom" })
	if !strings.Contains(b.String(), "  custom\n") {
		t.Errorf("describe func not used: %q", b.String())
	}
}

// TestFlightRecorderConcurrent exercises the lock-free ring under the race
// detector: writers lapping the ring while readers snapshot and dump.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := stmobs.NewFlightRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f.Record(uint16(w+1), uint64(i), 0, 0)
				if i%500 == 0 {
					_ = f.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if f.Total() != 8000 {
		t.Errorf("Total = %d, want 8000", f.Total())
	}
	if got := len(f.Snapshot()); got != 32 {
		t.Errorf("retained %d, want 32", got)
	}
}

// TestFlightRecorderObserver registers the recorder on a Memory and forces
// aborts; the ring must retain stm-abort events with the engine's reason.
func TestFlightRecorderObserver(t *testing.T) {
	m, err := stm.New(8, stm.WithEngine(stm.TL2))
	if err != nil {
		t.Fatal(err)
	}
	f := stmobs.NewFlightRecorder(64)
	m.Observe(stm.ObsConfig{Level: stm.ObsCounters, Observer: f})

	// One writer parks holding word 0's commit lock, so a second writer's
	// attempts on the word abort until it is released.
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.SetChaos(func(e stm.ChaosEvent) {
		if e.Point == stm.ChaosTL2PostLock {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})
	defer m.SetChaos(nil)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		addWord(m, 0, 1)
	}()
	<-parked
	go func() {
		defer wg.Done()
		addWord(m, 0, 1)
	}()
	for deadline := time.Now().Add(10 * time.Second); m.Stats().Failures == 0; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("a writer blocked by a held commit lock never aborted")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := m.Peek(0); got != 2 {
		t.Errorf("word 0 = %d after two adds, want 2", got)
	}
	found := false
	for _, e := range f.Snapshot() {
		if e.Kind == stmobs.FlightStmAbort {
			found = true
			if !strings.Contains(e.String(), "stm-abort") {
				t.Errorf("abort event renders as %q", e.String())
			}
		}
	}
	if !found {
		t.Errorf("aborts occurred (%d failures) but none recorded", m.Stats().Failures)
	}
}
