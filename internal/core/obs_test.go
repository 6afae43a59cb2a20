package core

// Tests for the stmobs seam: abort taxonomy per engine, histograms, event
// delivery, trace sampling, the ResetStats sweep, and the concurrent
// snapshot/reset/reconfigure contract (the race-mode target in CI).

import (
	"sync"
	"testing"
)

// eventLog is a recording Observer: per-kind counts plus copies of every
// abort event.
type eventLog struct {
	mu     sync.Mutex
	counts [6]int
	aborts []Event
}

func (l *eventLog) ObsEvent(e *Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(e.Kind) < len(l.counts) {
		l.counts[e.Kind]++
	}
	if e.Kind == EvAbort {
		l.aborts = append(l.aborts, *e)
	}
}

// traceLog records every sampled trace (it implements both interfaces, like
// stmobs.RingTracer).
type traceLog struct {
	mu     sync.Mutex
	traces []TraceEvent
}

func (l *traceLog) ObsEvent(e *Event) {}
func (l *traceLog) ObsTrace(t *TraceEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traces = append(l.traces, *t)
}

func identity(old []uint64) []uint64 { return old }

func TestObsLevelStrings(t *testing.T) {
	cases := map[ObsLevel]string{ObsOff: "off", ObsCounters: "counters", ObsHistograms: "hist", ObsTrace: "trace"}
	for lvl, want := range cases {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
	if ReasonSTHelped.String() != "st-helped" || ReasonTL2Validate.String() != "tl2-validate" {
		t.Error("AbortReason names drifted")
	}
	if EvValidationFail.String() != "validation-fail" {
		t.Error("EventKind names drifted")
	}
}

func TestObsTaxonomyST(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(ObsConfig{Level: ObsCounters})

	// An unstable blocker: the failure path finds no protocol to help, so
	// every failure is charged to st-conflict, never st-helped.
	release := blockWord(m, 5)
	const fails = 7
	for i := 0; i < fails; i++ {
		if _, ok := tryOnce(m, []int{2, 5}, identity); ok {
			t.Fatal("attempt against a blocked word committed")
		}
	}
	release()
	const commits = 3
	for i := 0; i < commits; i++ {
		if _, ok := tryOnce(m, []int{2, 5}, identity); !ok {
			t.Fatal("uncontended attempt failed")
		}
	}

	s := m.Stats()
	if s.STConflictAborts != fails || s.STHelpedAborts != 0 {
		t.Errorf("ST taxonomy = conflict:%d helped:%d, want %d/0", s.STConflictAborts, s.STHelpedAborts, fails)
	}
	if s.STConflictAborts+s.STHelpedAborts != s.Failures {
		t.Errorf("taxonomy sum %d != failures %d", s.STConflictAborts+s.STHelpedAborts, s.Failures)
	}
	if s.TL2ReadAborts != 0 || s.TL2ReadOnlyCommits != 0 || s.TL2ClockRaces != 0 {
		t.Errorf("TL2 counters nonzero on the ST engine: %+v", s)
	}
}

func TestObsTaxonomyTL2(t *testing.T) {
	m, _ := newTL2(t, 8)
	m.Observe(ObsConfig{Level: ObsCounters})

	// A locked word rejects the invisible read phase: tl2-read.
	release := blockWord(m, 3)
	const fails = 5
	for i := 0; i < fails; i++ {
		if _, ok := tryOnce(m, []int{1, 3}, identity); ok {
			t.Fatal("attempt against a locked word committed")
		}
	}
	release()

	// An identity update is a read-only commit: zero RMWs, counted.
	const readOnly = 4
	for i := 0; i < readOnly; i++ {
		if _, ok := tryOnce(m, []int{1, 3}, identity); !ok {
			t.Fatal("read-only attempt failed")
		}
	}
	if _, ok := tryOnce(m, []int{0}, func(old []uint64) []uint64 {
		return []uint64{old[0] + 1}
	}); !ok {
		t.Fatal("writing attempt failed")
	}

	s := m.Stats()
	if s.TL2ReadAborts != fails {
		t.Errorf("TL2ReadAborts = %d, want %d", s.TL2ReadAborts, fails)
	}
	if s.TL2ReadOnlyCommits != readOnly {
		t.Errorf("TL2ReadOnlyCommits = %d, want %d", s.TL2ReadOnlyCommits, readOnly)
	}
	if sum := s.TL2ReadAborts + s.TL2LockAborts + s.TL2ValidateAborts; sum != s.Failures {
		t.Errorf("taxonomy sum %d != failures %d", sum, s.Failures)
	}
	if s.STConflictAborts != 0 || s.STHelpedAborts != 0 || s.Helps != 0 {
		t.Errorf("ST counters nonzero on the TL2 engine: %+v", s)
	}
}

// TestObsTaxonomyPartitionsFailures is the cross-engine invariant under real
// contention: every failed attempt lands in exactly one taxonomy bucket.
func TestObsTaxonomyPartitionsFailures(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(4, kind)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(ObsConfig{Level: ObsCounters})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 3000; i++ {
						tryOnce(m, []int{0, 2}, func(old []uint64) []uint64 {
							return []uint64{old[0] + 1, old[1] + 1}
						})
					}
				}(w)
			}
			wg.Wait()
			s := m.Stats()
			sum := s.STConflictAborts + s.STHelpedAborts + s.STValidateAborts +
				s.TL2ReadAborts + s.TL2LockAborts + s.TL2ValidateAborts
			if sum != s.Failures {
				t.Errorf("taxonomy sum %d != failures %d (snapshot %+v)", sum, s.Failures, s)
			}
		})
	}
}

func TestObsHistograms(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(ObsConfig{Level: ObsHistograms})

	release := blockWord(m, 6)
	const fails = 4
	for i := 0; i < fails; i++ {
		tryOnce(m, []int{1, 6}, identity)
	}
	release()
	const commits = 9
	for i := 0; i < commits; i++ {
		if _, ok := tryOnce(m, []int{1, 6}, identity); !ok {
			t.Fatal("uncontended attempt failed")
		}
	}

	s := m.Stats()
	if got := s.CommitTicks.Total(); got != commits {
		t.Errorf("CommitTicks total = %d, want %d", got, commits)
	}
	if got := s.AbortTicks.Total(); got != fails {
		t.Errorf("AbortTicks total = %d, want %d", got, fails)
	}
	if got := s.ReadSetSize.Total(); got != commits+fails {
		t.Errorf("ReadSetSize total = %d, want %d", got, commits+fails)
	}
	// Every data set above had 2 words: one read-set bucket, [2,4), holds
	// all mass.
	if got := s.ReadSetSize.Counts[2]; got != commits+fails {
		t.Errorf("ReadSetSize bin [2,4) = %d, want %d", got, commits+fails)
	}
	// The write-set histogram counts attempts whose write set was computed —
	// on ST that is the committed attempts (the whole data set is installed).
	if got := s.WriteSetSize.Total(); got != commits {
		t.Errorf("WriteSetSize total = %d, want %d", got, commits)
	}
}

func TestObsObserverEvents(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	m.Observe(ObsConfig{Level: ObsCounters, Observer: log})

	release := blockWord(m, 6)
	const fails = 3
	for i := 0; i < fails; i++ {
		tryOnce(m, []int{6}, identity)
	}
	release()
	const commits = 4
	for i := 0; i < commits; i++ {
		tryOnce(m, []int{6}, identity)
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	if log.counts[EvBegin] != fails+commits {
		t.Errorf("begin events = %d, want %d", log.counts[EvBegin], fails+commits)
	}
	if log.counts[EvCommit] != commits || log.counts[EvAbort] != fails {
		t.Errorf("commit/abort events = %d/%d, want %d/%d",
			log.counts[EvCommit], log.counts[EvAbort], commits, fails)
	}
	// ST emits EvLock when the whole data set is acquired — commits only here.
	if log.counts[EvLock] != commits {
		t.Errorf("lock events = %d, want %d", log.counts[EvLock], commits)
	}
	for _, e := range log.aborts {
		if e.Reason != ReasonSTConflict || e.Addr != 6 || e.Engine != EngineST {
			t.Errorf("abort event = %+v, want st-conflict at word 6", e)
		}
	}
}

func TestObsTraceSampling(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	log := &traceLog{}
	// SampleEvery=1 traces every attempt: the per-shard sampling counters
	// make any coarser period nondeterministic for a sequential caller.
	m.Observe(ObsConfig{Level: ObsTrace, Observer: log, SampleEvery: 1})

	release := blockWord(m, 3)
	const fails = 2
	for i := 0; i < fails; i++ {
		tryOnce(m, []int{1, 3}, identity)
	}
	release()
	const commits = 6
	for i := 0; i < commits; i++ {
		if _, ok := tryOnce(m, []int{1, 3}, func(old []uint64) []uint64 {
			return []uint64{old[0] + 1, old[1] + 1}
		}); !ok {
			t.Fatal("uncontended attempt failed")
		}
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.traces) != fails+commits {
		t.Fatalf("traces = %d, want %d", len(log.traces), fails+commits)
	}
	var committed, aborted int
	for _, tr := range log.traces {
		if len(tr.Addrs) != 2 || tr.Addrs[0] != 1 || tr.Addrs[1] != 3 {
			t.Errorf("trace footprint = %v, want [1 3]", tr.Addrs)
		}
		if tr.Committed {
			committed++
			if tr.Writes != 2 || tr.Reason != ReasonNone {
				t.Errorf("committed trace = %+v, want 2 writes, no reason", tr)
			}
		} else {
			aborted++
			if tr.Reason != ReasonSTConflict {
				t.Errorf("aborted trace reason = %v, want st-conflict", tr.Reason)
			}
		}
	}
	if committed != commits || aborted != fails {
		t.Errorf("traced %d commits / %d aborts, want %d/%d", committed, aborted, commits, fails)
	}
}

func TestObsResetSweepsEverything(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(8, kind)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(ObsConfig{Level: ObsTrace, Observer: &traceLog{}, SampleEvery: 1})
			release := blockWord(m, 2)
			for i := 0; i < 5; i++ {
				tryOnce(m, []int{2}, identity)
			}
			release()
			for i := 0; i < 5; i++ {
				tryOnce(m, []int{2}, identity)
			}
			if s := m.Stats(); s.Failures == 0 || s.CommitTicks.Total() == 0 {
				t.Fatalf("no observed state accumulated before reset: %+v", s)
			}

			m.ResetStats()
			s := m.Stats()
			if s.Attempts != 0 || s.Commits != 0 || s.Failures != 0 || s.Helps != 0 {
				t.Errorf("protocol counters survived reset: %+v", s)
			}
			if s.STConflictAborts != 0 || s.STHelpedAborts != 0 ||
				s.TL2ReadAborts != 0 || s.TL2LockAborts != 0 || s.TL2ValidateAborts != 0 ||
				s.TL2ReadOnlyCommits != 0 || s.TL2ClockRaces != 0 || s.TL2ClockAdoptions != 0 {
				t.Errorf("taxonomy survived reset: %+v", s)
			}
			for name, h := range map[string]HistogramSnapshot{
				"commit": s.CommitTicks, "abort": s.AbortTicks,
				"readset": s.ReadSetSize, "writeset": s.WriteSetSize,
			} {
				if h.Total() != 0 {
					t.Errorf("%s histogram survived reset: %v", name, h.Counts)
				}
			}
			if got := m.ConflictCount(2); got != 0 {
				t.Errorf("per-word conflicts survived reset: %d", got)
			}
		})
	}
}

// TestObsConcurrentSnapshotAndReconfigure is the race-mode contract: Stats,
// ResetStats, Observe, and DebugString must be callable from any goroutine
// while both engines run a contended mixed workload.
func TestObsConcurrentSnapshotAndReconfigure(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(8, kind)
			if err != nil {
				t.Fatal(err)
			}
			log := &traceLog{}
			configs := []ObsConfig{
				{},
				{Level: ObsCounters, Observer: &eventLog{}},
				{Level: ObsHistograms, Observer: log},
				{Level: ObsTrace, Observer: log, SampleEvery: 8},
			}

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						tryOnce(m, []int{w % 4, 4 + (i % 4)}, func(old []uint64) []uint64 {
							return []uint64{old[0] + 1, old[1]}
						})
					}
				}(w)
			}
			for i := 0; i < 200; i++ {
				m.Observe(configs[i%len(configs)])
				_ = m.Stats()
				if i%10 == 0 {
					m.ResetStats()
					_ = m.DebugString()
				}
			}
			close(stop)
			wg.Wait()

			// Quiesced: the final snapshot must still hold the invariants.
			m.Observe(ObsConfig{Level: ObsCounters})
			m.ResetStats()
			if _, ok := tryOnce(m, []int{0}, identity); !ok {
				t.Fatal("memory broken after reconfiguration storm")
			}
			if s := m.Stats(); s.Attempts != 1 || s.Commits != 1 {
				t.Errorf("post-storm stats = %+v, want 1/1", s)
			}
		})
	}
}
