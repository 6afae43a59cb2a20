package core

// Tests for the stmobs seam: abort taxonomy per engine, histograms, event
// delivery, latency sampling, the ResetStats sweep, and the concurrent
// snapshot/reset/reconfigure contract (the race-mode target in CI).

import (
	"fmt"
	"sync"
	"testing"
)

// eventLog is a recording Observer: per-kind counts plus copies of every
// abort event.
type eventLog struct {
	mu     sync.Mutex
	counts map[EventKind]int
	aborts []Event
}

func (l *eventLog) ObsEvent(e *Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = make(map[EventKind]int)
	}
	l.counts[e.Kind]++
	if e.Kind == EvAbort {
		l.aborts = append(l.aborts, *e)
	}
}

// endLog keeps a copy of every event, its Addrs copied too, since the
// event and its data set are record-owned scratch.
type endLog struct {
	mu   sync.Mutex
	ends []Event
}

func (l *endLog) ObsEvent(e *Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := *e
	c.Addrs = append([]int(nil), e.Addrs...)
	l.ends = append(l.ends, c)
}

func identity(old []uint64) []uint64 { return old }

func TestObsLevelStrings(t *testing.T) {
	cases := map[ObsLevel]string{ObsOff: "off", ObsCounters: "counters", ObsHistograms: "hist", ObsHistograms + 1: "ObsLevel(3)"}
	for lvl, want := range cases {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
	if ReasonSTHelped.String() != "st-helped" || ReasonTL2Validate.String() != "tl2-validate" {
		t.Error("AbortReason names drifted")
	}
	if EvCommit.String() != "commit" || EvAbort.String() != "abort" || EventKind(2).String() != "EventKind(2)" {
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
	// SampleEvery=1 times every attempt, so the latency histograms see one
	// observation per attempt.
	m.Observe(ObsConfig{Level: ObsHistograms, SampleEvery: 1})

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
	if got := s.CommitNanos.Total(); got != commits {
		t.Errorf("CommitNanos total = %d, want %d", got, commits)
	}
	if got := s.AbortNanos.Total(); got != fails {
		t.Errorf("AbortNanos total = %d, want %d", got, fails)
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

// TestObsLatencyResolution: with every attempt sampled, each uncontended
// commit lands in a nanosecond bin above 0 on both engines — a commit takes
// well over a nanosecond, and a coarser clock would put it in bin 0.
func TestObsLatencyResolution(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(8, kind)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(ObsConfig{Level: ObsHistograms, SampleEvery: 1})
			const n = 200
			for i := 0; i < n; i++ {
				if _, ok := tryOnce(m, []int{1, 5}, func(old []uint64) []uint64 {
					return []uint64{old[0] + 1, old[1] + 1}
				}); !ok {
					t.Fatal("uncontended attempt failed")
				}
			}
			h := m.Stats().CommitNanos
			if h.Total() != n || h.Counts[0] != 0 {
				t.Errorf("CommitNanos total = %d, bin 0 = %d; want %d and 0 (%s)", h.Total(), h.Counts[0], n, h)
			}
		})
	}
}

// TestObsLatencySampling: with SampleEvery k, the latency histograms hold
// attempts/k observations, give or take one per stats shard (each shard
// counts its own attempts), while the size histograms see every attempt.
func TestObsLatencySampling(t *testing.T) {
	for _, kind := range EngineKinds() {
		for _, k := range []uint64{16, 12} {
			t.Run(fmt.Sprintf("%v/every=%d", kind, k), func(t *testing.T) {
				m, err := NewMemoryEngine(64, kind)
				if err != nil {
					t.Fatal(err)
				}
				const workers, per = 4, 2000
				m.Observe(ObsConfig{Level: ObsHistograms, SampleEvery: int(k)})
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							tryOnce(m, []int{2 * w, 2*w + 1}, identity)
						}
					}(w)
				}
				wg.Wait()
				s := m.Stats()
				lat := int64(s.CommitNanos.Total() + s.AbortNanos.Total())
				if want := int64(s.Attempts / k); lat < want-statShards || lat > want+statShards {
					t.Errorf("latency observations = %d over %d attempts, want %d ± %d", lat, s.Attempts, want, statShards)
				}
				if got := s.ReadSetSize.Total(); got != s.Attempts {
					t.Errorf("ReadSetSize total = %d, want every attempt (%d)", got, s.Attempts)
				}
			})
		}
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
	// One event per attempt: its outcome.
	if log.counts[EvCommit] != commits || log.counts[EvAbort] != fails || len(log.counts) != 2 {
		t.Errorf("events by kind = %v, want %d commits and %d aborts only", log.counts, commits, fails)
	}
	for _, e := range log.aborts {
		if e.Reason != ReasonSTConflict || e.Addr != 6 || e.Engine != EngineST {
			t.Errorf("abort event = %+v, want st-conflict at word 6", e)
		}
	}
}

// TestObsTraceSampling: at ObsHistograms every sampled attempt's end event
// is its trace — footprint, outcome, and elapsed time.
func TestObsTraceSampling(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	log := &endLog{}
	// SampleEvery=1 times every attempt: the per-shard sampling counters
	// make any coarser period nondeterministic for a sequential caller.
	m.Observe(ObsConfig{Level: ObsHistograms, Observer: log, SampleEvery: 1})

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
	if len(log.ends) != fails+commits {
		t.Fatalf("end events = %d, want %d", len(log.ends), fails+commits)
	}
	var committed, aborted int
	for _, e := range log.ends {
		if e.Elapsed <= 0 {
			t.Errorf("%v event Elapsed = %v, want > 0 for a sampled attempt", e.Kind, e.Elapsed)
		}
		if len(e.Addrs) != 2 || e.Addrs[0] != 1 || e.Addrs[1] != 3 {
			t.Errorf("%v event Addrs = %v, want [1 3]", e.Kind, e.Addrs)
		}
		if e.Kind == EvCommit {
			committed++
			if e.Writes != 2 || e.Reason != ReasonNone {
				t.Errorf("commit event = %+v, want 2 writes, no reason", e)
			}
		} else {
			aborted++
			if e.Reason != ReasonSTConflict {
				t.Errorf("abort event reason = %v, want st-conflict", e.Reason)
			}
		}
	}
	if committed != commits || aborted != fails {
		t.Errorf("sampled %d commits / %d aborts, want %d/%d", committed, aborted, commits, fails)
	}
}

func TestObsResetSweepsEverything(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewMemoryEngine(8, kind)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(ObsConfig{Level: ObsHistograms, Observer: &endLog{}, SampleEvery: 1})
			release := blockWord(m, 2)
			for i := 0; i < 5; i++ {
				tryOnce(m, []int{2}, identity)
			}
			release()
			for i := 0; i < 5; i++ {
				tryOnce(m, []int{2}, identity)
			}
			if s := m.Stats(); s.Failures == 0 || s.CommitNanos.Total() == 0 {
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
				"commit": s.CommitNanos, "abort": s.AbortNanos,
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
			log := &eventLog{}
			configs := []ObsConfig{
				{},
				{Level: ObsCounters, Observer: log},
				{Level: ObsHistograms, Observer: log},
				{Level: ObsHistograms, Observer: log, SampleEvery: 8},
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
