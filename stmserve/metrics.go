// Serving-layer telemetry: per-command-class counters and latency
// histograms, batch-size and queue-depth distributions, connection
// lifecycle counters, and the flight recorder.
//
// The discipline mirrors the engine's stats (DESIGN.md §12/§15): latency
// is timed per batch or blocking wait, not per command (one monotonic
// clock reading at each end, in nanoseconds like the engine histograms),
// no allocation at steady state (each session owns a pre-allocated stripe
// of atomic counters; a command bumps its own session's stripe, so stripes
// are written from one goroutine and never contended), and merging
// deferred to snapshot time (Metrics folds the retired-session accumulator
// with every live stripe). Metrics are always on — the whole point of the
// stripe layout is that "on" costs a handful of uncontended atomic adds
// per command.

package stmserve

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
)

// clockBase anchors the batch clock. time.Since of a reading that carries
// the monotonic clock reads only that clock, once, where time.Now reads
// the wall clock as well.
var clockBase = time.Now()

// monoNow reads the monotonic clock as the time elapsed since clockBase.
func monoNow() time.Duration { return time.Since(clockBase) }

// cmdClass buckets the command vocabulary for metrics: one class per
// user-meaningful command shape. INCR/DECR/INCRBY share a class (same
// transactional shape), as do PING/ECHO; MULTI/DISCARD/QUEUED replies are
// protocol plumbing under classMulti, while EXEC gets its own class (its
// latency is a whole group's).
type cmdClass uint8

const (
	classPing cmdClass = iota
	classGet
	classSet
	classDel
	classExists
	classIncr
	classQPush
	classQPop
	classQLen
	classBQPop
	classZAdd
	classZPop
	classZLen
	classMulti
	classExec
	classErr
	classOther
	nClasses
)

// classNames is index-aligned with the cmdClass constants; these are the
// stable `class` label values of the Prometheus export.
var classNames = [nClasses]string{
	"ping", "get", "set", "del", "exists", "incr",
	"qpush", "qpop", "qlen", "bqpop", "zadd", "zpop", "zlen",
	"multi", "exec", "err", "other",
}

// classOf maps ops (session.go) to classes, index-aligned with the op
// constants.
var classOf = [...]cmdClass{
	opPing:        classPing,
	opEcho:        classPing,
	opGet:         classGet,
	opSet:         classSet,
	opDel:         classDel,
	opExists:      classExists,
	opIncr:        classIncr,
	opDecr:        classIncr,
	opIncrBy:      classIncr,
	opQPush:       classQPush,
	opQPop:        classQPop,
	opQLen:        classQLen,
	opBQPop:       classBQPop,
	opZAdd:        classZAdd,
	opZPop:        classZPop,
	opZLen:        classZLen,
	opMulti:       classMulti,
	opExec:        classExec,
	opDiscard:     classMulti,
	opQuit:        classOther,
	opReplyErr:    classErr,
	opReplyQueued: classMulti,
}

// sessionMetrics is one session's stripe: written only by the session's
// goroutine (uncontended atomics, so snapshots from other goroutines read
// them racelessly), folded into the server totals when the session
// retires.
type sessionMetrics struct {
	cmds   [nClasses]atomic.Uint64
	lat    [nClasses]stm.Hist
	batch  stm.Hist
	qdepth stm.Hist
}

// addTo adds the stripe's current counts into out. A stripe being folded
// at retirement while its session races a final command may miss that
// command's bumps — the same teardown-window caveat StatsSnapshot
// documents for the engine counters.
func (sm *sessionMetrics) addTo(out *Metrics) {
	for c := range out.Commands {
		out.Commands[c].Count += sm.cmds[c].Load()
		sm.lat[c].AddTo(&out.Commands[c].Latency)
	}
	sm.batch.AddTo(&out.BatchCommands)
	sm.qdepth.AddTo(&out.QueueDepth)
}

// serverMetrics is the server-wide state: connection lifecycle counters,
// the live stripe set, and the retired accumulator.
type serverMetrics struct {
	accepted atomic.Uint64 // TCP connections accepted
	active   atomic.Int64  // TCP connections currently open
	poisoned atomic.Uint64 // sessions ended by a protocol error
	killed   atomic.Uint64 // connections force-closed by Server.Close
	sessions atomic.Uint64 // session id source (flight-recorder conn ids)

	mu   sync.Mutex
	live map[*sessionMetrics]struct{}
	dead Metrics // retired stripes: Commands, BatchCommands, QueueDepth
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{live: make(map[*sessionMetrics]struct{})}
	m.dead.Commands = make([]CommandMetrics, nClasses)
	for c := range m.dead.Commands {
		m.dead.Commands[c].Class = classNames[c]
	}
	return m
}

func (m *serverMetrics) register(sm *sessionMetrics) {
	m.mu.Lock()
	m.live[sm] = struct{}{}
	m.mu.Unlock()
}

func (m *serverMetrics) retire(sm *sessionMetrics) {
	m.mu.Lock()
	if _, ok := m.live[sm]; ok {
		delete(m.live, sm)
		sm.addTo(&m.dead)
	}
	m.mu.Unlock()
}

// totals folds dead + live into one consistent-enough copy.
func (m *serverMetrics) totals() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.dead
	t.Commands = slices.Clone(t.Commands)
	for sm := range m.live {
		sm.addTo(&t)
	}
	return t
}

// CommandMetrics is one command class's slice of a Metrics snapshot.
type CommandMetrics struct {
	// Class is the command class name (the Prometheus `class` label).
	Class string
	// Count is how many commands of this class have executed.
	Count uint64
	// Latency is the class's client-observed latency distribution in
	// nanoseconds: each command is charged the duration of the batch (or
	// blocking wait) that carried it, measured from execution start to
	// commit.
	Latency stm.HistogramSnapshot
}

// Metrics is a point-in-time snapshot of the server's serving-layer
// telemetry, with the usual torn-window caveats: live sessions keep
// running while the snapshot folds their stripes.
type Metrics struct {
	// Engine is the backing Memory's commit protocol.
	Engine stm.Engine
	// Connection lifecycle: accepted counts every TCP connection ever
	// accepted, active the ones currently open, poisoned the sessions ended
	// by a protocol error, killed the connections force-closed by Close.
	ConnsAccepted uint64
	ConnsActive   int64
	ConnsPoisoned uint64
	ConnsKilled   uint64
	// Commands holds every command class in classNames order, including
	// zero-count classes.
	Commands []CommandMetrics
	// BatchCommands is the pipelined-batch-size distribution: commands per
	// commit, one observation per executed batch.
	BatchCommands stm.HistogramSnapshot
	// QueueDepth is the blocking-queue depth distribution: the length of a
	// named queue observed after each QPUSH and after each served blocking
	// pop.
	QueueDepth stm.HistogramSnapshot
}

// Metrics snapshots the server's serving-layer telemetry.
func (s *Server) Metrics() Metrics {
	out := s.met.totals()
	out.Engine = s.mem.Engine()
	out.ConnsAccepted = s.met.accepted.Load()
	out.ConnsActive = s.met.active.Load()
	out.ConnsPoisoned = s.met.poisoned.Load()
	out.ConnsKilled = s.met.killed.Load()
	return out
}

// WritePrometheus implements stmobs.Collector: the server metrics in
// Prometheus text format. Stable metric names (DESIGN.md §15):
//
//	stmserve_commands_total{engine,class}       per-class command counter
//	stmserve_command_seconds{engine,class}      per-class latency histogram
//	stmserve_batch_commands{engine}             commands-per-commit histogram
//	stmserve_queue_depth{engine}                queue-depth histogram
//	stmserve_connections_accepted_total{engine}
//	stmserve_connections_active{engine}         gauge
//	stmserve_connections_poisoned_total{engine}
//	stmserve_connections_killed_total{engine}
//
// Latency histograms are emitted only for classes that have executed at
// least once; counters are emitted for every class.
func (s *Server) WritePrometheus(w io.Writer) {
	m := s.Metrics()
	eng := m.Engine.String()
	fmt.Fprintf(w, "# TYPE stmserve_commands_total counter\n")
	for _, c := range m.Commands {
		fmt.Fprintf(w, "stmserve_commands_total{engine=%q,class=%q} %d\n", eng, c.Class, c.Count)
	}
	for _, c := range m.Commands {
		if c.Count == 0 {
			continue
		}
		stmobs.WritePromHist(w, "stmserve_command_seconds",
			fmt.Sprintf("engine=%q,class=%q", eng, c.Class), c.Latency, 1e9)
	}
	labels := fmt.Sprintf("engine=%q", eng)
	stmobs.WritePromHist(w, "stmserve_batch_commands", labels, m.BatchCommands, 1)
	stmobs.WritePromHist(w, "stmserve_queue_depth", labels, m.QueueDepth, 1)
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s{%s} %d\n", name, name, labels, v)
	}
	counter("stmserve_connections_accepted_total", m.ConnsAccepted)
	counter("stmserve_connections_poisoned_total", m.ConnsPoisoned)
	counter("stmserve_connections_killed_total", m.ConnsKilled)
	fmt.Fprintf(w, "# TYPE stmserve_connections_active gauge\nstmserve_connections_active{%s} %d\n",
		labels, m.ConnsActive)
}

// Flight-recorder event kinds (stmobs.FlightEvent.Kind) the server
// records. The dump format is documented in DESIGN.md §15.
const (
	// flightBatch: one batch transaction, or one BQPOP wait. Conn=session
	// id, A=the command count in the low 32 bits and, above them, a
	// bitmask of the classes present (1<<cmdClass), B=latency in
	// nanoseconds.
	flightBatch uint16 = 1 + iota
	// flightSession: session lifecycle. Conn=session id, A: 0=open,
	// 1=clean close, 2=poisoned.
	flightSession
	// flightPanic: a connection handler panicked; recorded just before the
	// dump. Conn=session id.
	flightPanic
)

// describeFlight renders the server's flight-event vocabulary; stm-seam
// kinds fall through to the stmobs default.
func describeFlight(e stmobs.FlightEvent) string {
	switch e.Kind {
	case flightBatch:
		var classes []string
		for c, name := range classNames {
			if e.A>>32&(1<<c) != 0 {
				classes = append(classes, name)
			}
		}
		return fmt.Sprintf("t=%v conn=%d batch cmds=%d classes=%s took=%v",
			e.At, e.Conn, uint32(e.A), strings.Join(classes, ","), time.Duration(e.B))
	case flightSession:
		what := [...]string{"open", "close", "poisoned"}
		w := "?"
		if e.A < uint64(len(what)) {
			w = what[e.A]
		}
		return fmt.Sprintf("t=%v conn=%d session %s", e.At, e.Conn, w)
	case flightPanic:
		return fmt.Sprintf("t=%v conn=%d PANIC in connection handler", e.At, e.Conn)
	}
	return e.String()
}

// Flight returns the server's always-on flight recorder: the last
// Config.FlightEvents batch/session events, dumpable via
// DumpFlight. cmd/stmserve registers it as the engine's Observer, so it
// also keeps the engine's aborts and sampled commits, dumps it on SIGQUIT,
// and the connection handler dumps it on panic.
func (s *Server) Flight() *stmobs.FlightRecorder { return s.flight }

// DumpFlight writes the flight recorder's retained events to w, oldest
// first, decoded with the server's event vocabulary.
func (s *Server) DumpFlight(w io.Writer) error {
	return s.flight.Dump(w, describeFlight)
}
