package stmobs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
)

// The flight recorder: an always-on fixed-size lock-free ring of recent
// events, for the dump-on-failure style of observability. Every event is
// four scalar words and no lock is taken — recording is one clock read, one
// atomic counter bump and four relaxed atomic stores, cheap enough to leave
// on every batch of a production server. Registered as an stm.Observer it
// also keeps the engine's aborts and, at stm.ObsHistograms, the sampled
// commits, so one ring holds both the producer's history and the recent
// transaction attempts.
// When something dies (SIGQUIT, a panic, a simulation invariant violation)
// the last len(ring) events are already in memory, ready to dump next to
// the replay seed.
//
// The lock-freedom costs slot-level atomicity: a reader racing a writer
// that laps the ring may observe a torn slot (each of the four words is
// individually consistent, but they may belong to different events). A
// crash dump tolerates that; a metrics pipeline should use the stmserve
// metrics or StatsMap instead.

// FlightEvent is one recorded event. Kind namespaces are producer-defined;
// the FlightStm* kinds are reserved for the stm.Observer integration, and
// stmserve documents its command kinds in DESIGN.md §15.
type FlightEvent struct {
	// At is the record time since the recorder was built (Dump's header
	// prints that instant), on the monotonic clock at microsecond
	// resolution. 48 bits of microseconds are stored, which wrap after
	// about 8.9 years.
	At time.Duration
	// Kind identifies the event within its producer's namespace.
	Kind uint16
	// Conn is the connection / actor / attempt identity, 0 when none.
	Conn uint64
	// A and B are kind-specific payload words.
	A, B uint64
}

// Reserved flight-event kinds recorded by the stm.Observer integration.
// Producers defining their own kinds should stay below 0xFF00.
const (
	// FlightStmAbort is a failed transaction attempt: Conn is the attempt
	// Seq, A the stm.AbortReason, B the failing word as an int64 (or -1).
	FlightStmAbort uint16 = 0xFF00 + iota
	// FlightStmCommit is a sampled committed attempt (one whose event
	// carries an Elapsed time): Conn is the attempt Seq, A its write-set
	// size in words, B its duration in nanoseconds.
	FlightStmCommit
)

// String renders the event: reserved stm kinds decoded, everything else as
// raw fields (producers with richer vocabularies pass a describe function
// to Dump instead).
func (e FlightEvent) String() string {
	switch e.Kind {
	case FlightStmAbort:
		return fmt.Sprintf("t=%v stm-abort seq=%d reason=%s addr=%d",
			e.At, e.Conn, stm.AbortReason(e.A), int64(e.B))
	case FlightStmCommit:
		return fmt.Sprintf("t=%v stm-commit seq=%d writes=%d took=%v",
			e.At, e.Conn, e.A, time.Duration(e.B))
	}
	return fmt.Sprintf("t=%v kind=0x%04x conn=%d a=%d b=%d", e.At, e.Kind, e.Conn, e.A, e.B)
}

// FlightRecorder is the ring. The zero value is not usable; construct with
// NewFlightRecorder. All methods are safe for concurrent use from any
// number of goroutines.
type FlightRecorder struct {
	start time.Time // event stamps count from here
	mask  uint64
	head  atomic.Uint64 // next sequence number == total events recorded
	slots [][4]atomic.Uint64
}

// NewFlightRecorder returns a recorder retaining the last capacity events
// (rounded up to a power of two, minimum 16). Event stamps count from the
// moment it is built.
func NewFlightRecorder(capacity int) *FlightRecorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{start: time.Now(), mask: uint64(n - 1), slots: make([][4]atomic.Uint64, n)}
}

// Record appends one event, stamped with the time since the recorder was
// built: lock-free, allocation-free, one clock read and ~five atomic word
// operations.
func (f *FlightRecorder) Record(kind uint16, conn, a, b uint64) {
	us := uint64(time.Since(f.start) / time.Microsecond)
	seq := f.head.Add(1) - 1
	s := &f.slots[seq&f.mask]
	s[0].Store(us<<16 | uint64(kind))
	s[1].Store(conn)
	s[2].Store(a)
	s[3].Store(b)
}

// Total returns how many events have been recorded since construction
// (including overwritten ones).
func (f *FlightRecorder) Total() uint64 { return f.head.Load() }

// Cap returns the ring capacity in events.
func (f *FlightRecorder) Cap() int { return len(f.slots) }

// Snapshot copies the retained events, oldest first. Slots being written
// concurrently may read torn (see the package comment on the trade).
func (f *FlightRecorder) Snapshot() []FlightEvent {
	head := f.head.Load()
	n := uint64(len(f.slots))
	if head < n {
		n = head
	}
	out := make([]FlightEvent, 0, n)
	for i := uint64(0); i < n; i++ {
		s := &f.slots[(head-n+i)&f.mask]
		w0 := s[0].Load()
		out = append(out, FlightEvent{
			At:   time.Duration(w0>>16) * time.Microsecond,
			Kind: uint16(w0),
			Conn: s[1].Load(),
			A:    s[2].Load(),
			B:    s[3].Load(),
		})
	}
	return out
}

// Dump writes the retained events oldest-first, one per line, through
// describe (nil uses FlightEvent.String). The header line carries the
// event count and the wall-clock time the recorder was built, which every
// event's At counts from, so a dump is interpretable on its own.
func (f *FlightRecorder) Dump(w io.Writer, describe func(FlightEvent) string) error {
	if describe == nil {
		describe = FlightEvent.String
	}
	events := f.Snapshot()
	if _, err := fmt.Fprintf(w, "flight recorder: %d events retained (of %d recorded, t counts from %s)\n",
		len(events), f.Total(), f.start.Format(time.RFC3339Nano)); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "  %s\n", describe(e)); err != nil {
			return err
		}
	}
	return nil
}

// ObsEvent implements stm.Observer: abort events are recorded, and so are the commits the seam sampled (those with an
// Elapsed time, 1 in ObsConfig.SampleEvery at stm.ObsHistograms; every
// commit would flood the ring with the common case); everything else is
// ignored. Register the recorder as the ObsConfig.Observer at
// stm.ObsCounters to capture engine-level failure context alongside
// producer events, or at stm.ObsHistograms to keep recent sampled attempts
// as well.
func (f *FlightRecorder) ObsEvent(e *stm.Event) {
	switch e.Kind {
	case stm.EvCommit:
		if e.Elapsed != 0 {
			f.Record(FlightStmCommit, e.Seq, uint64(e.Writes), uint64(e.Elapsed))
		}
	case stm.EvAbort:
		f.Record(FlightStmAbort, e.Seq, uint64(e.Reason), uint64(int64(e.Addr)))
	}
}
