package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"

	"github.com/stm-go/stm/internal/xrand"
)

// Config describes a simulated machine.
type Config struct {
	// Procs is the number of simulated processors (≥ 1).
	Procs int
	// Words is the size of the shared memory (≥ 1).
	Words int
	// Model prices memory operations. Required.
	Model CostModel
	// Seed drives every random choice (cost jitter, start skew).
	Seed uint64
	// Jitter adds uniform [0, Jitter] cycles to each operation, breaking
	// artificial lockstep between identical processors. 0 disables.
	Jitter int64
	// MaxTime, when positive, force-stops the run once the virtual clock
	// passes it (a safety net against livelocked protocols).
	MaxTime int64
	// Stall, when non-nil, periodically suspends low-numbered processors —
	// the multiprogramming experiments. See StallPlan.
	Stall *StallPlan
}

// StallPlan injects long delays: every Period memory operations, each
// processor with id < Procs stalls for Duration cycles before the operation
// completes. This models preemption/page-fault style delays transparently
// to the protocol under test.
type StallPlan struct {
	Procs    int
	Period   int64
	Duration int64
}

// Program is the code one simulated processor runs. It must perform all
// shared-memory access through the Proc and must return when done (or when
// an operation panics with the machine's stop signal, which the runner
// absorbs).
type Program func(p *Proc)

// Result summarizes a completed run.
type Result struct {
	// Time is the virtual time at which the last processor finished.
	Time int64
	// MemOps[p] counts shared-memory operations issued by processor p.
	MemOps []int64
	// Stopped reports whether the run ended at MaxTime rather than by all
	// programs returning.
	Stopped bool
}

// errStopped unwinds a Program when the machine stops; the per-processor
// runner recovers it. It never escapes the package.
var errStopped = errors.New("sim: machine stopped")

// Machine is a simulated multiprocessor. Create with NewMachine, load
// programs, then Run. A Machine may be Run once; build a fresh one per
// experiment.
type Machine struct {
	cfg   Config
	words []uint64
	stamp []uint64 // per-word write counter backing LL/SC reservations
	procs []*Proc
	rng   *xrand.RNG

	yieldCh  chan yieldMsg
	stopping bool
	now      int64
}

type yieldMsg struct {
	p     *Proc
	time  int64
	alive bool
}

// NewMachine validates cfg and builds a machine.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("sim: Procs must be ≥ 1, got %d", cfg.Procs)
	}
	if cfg.Words < 1 {
		return nil, fmt.Errorf("sim: Words must be ≥ 1, got %d", cfg.Words)
	}
	if cfg.Model == nil {
		return nil, errors.New("sim: Model is required")
	}
	if cfg.Stall != nil && cfg.Stall.Period <= 0 {
		return nil, fmt.Errorf("sim: StallPlan.Period must be positive, got %d", cfg.Stall.Period)
	}
	m := &Machine{
		cfg:     cfg,
		words:   make([]uint64, cfg.Words),
		stamp:   make([]uint64, cfg.Words),
		rng:     xrand.New(cfg.Seed),
		yieldCh: make(chan yieldMsg),
	}
	m.procs = make([]*Proc, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = &Proc{
			id:      i,
			m:       m,
			grant:   make(chan struct{}),
			resAddr: -1,
			rng:     procRNG(cfg.Seed, i),
		}
	}
	return m, nil
}

// Model returns the machine's cost model (for reading traffic counters
// such as bus transactions after a run).
func (m *Machine) Model() CostModel { return m.cfg.Model }

// WordAt returns the value of a memory word. Valid before a run (to seed
// initial state via SetWord) and after it completes.
func (m *Machine) WordAt(addr int) uint64 { return m.words[addr] }

// SetWord initializes a memory word before Run.
func (m *Machine) SetWord(addr int, v uint64) { m.words[addr] = v }

// procHeap orders processors by (readyTime, id).
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].id < h[j].id
}
func (h procHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) { *h = append(*h, x.(*Proc)) }
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// Run executes one program per processor to completion and returns the
// run's Result. len(progs) must equal Procs.
func (m *Machine) Run(progs []Program) (Result, error) {
	if len(progs) != m.cfg.Procs {
		return Result{}, fmt.Errorf("sim: %d programs for %d processors", len(progs), m.cfg.Procs)
	}

	var wg sync.WaitGroup
	for i, prog := range progs {
		p := m.procs[i]
		p.time = m.rng.Int63n(4) // small start skew breaks initial lockstep
		p.prog = prog
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if r != errStopped {
						panic(r)
					}
				}
				m.yieldCh <- yieldMsg{p: p, alive: false}
			}()
			<-p.grant // initial grant: begin executing at p.time
			p.prog(p)
		}(p)
	}

	h := make(procHeap, 0, m.cfg.Procs)
	for _, p := range m.procs {
		heap.Push(&h, p)
	}

	// Invariant: exactly one grant is outstanding at a time, and every
	// grant is answered by exactly one yield message (either "ready at T"
	// or "done"), so every live processor is either in the heap or the one
	// currently granted.
	alive := m.cfg.Procs
	for alive > 0 {
		if len(h) == 0 {
			return Result{}, errors.New("sim: internal scheduler invariant violated (empty heap with live processors)")
		}
		p := heap.Pop(&h).(*Proc)
		m.now = p.time
		if m.cfg.MaxTime > 0 && m.now > m.cfg.MaxTime {
			m.stopping = true
		}
		p.grant <- struct{}{}
		msg := <-m.yieldCh
		if msg.alive {
			msg.p.time = msg.time
			heap.Push(&h, msg.p)
		} else {
			alive--
		}
	}
	wg.Wait()

	res := Result{
		Time:    m.now,
		MemOps:  make([]int64, m.cfg.Procs),
		Stopped: m.stopping,
	}
	for i, p := range m.procs {
		res.MemOps[i] = p.ops
		if p.time > res.Time {
			res.Time = p.time
		}
	}
	return res, nil
}

// procRNG derives processor i's private random stream from the machine
// seed.
func procRNG(seed uint64, i int) *xrand.RNG {
	return xrand.New(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
}
