// Server construction, the named-structure registries, and the TCP
// accept/read plumbing. The command pipeline itself lives in session.go;
// the package documentation (command vocabulary, execution model) is in
// doc.go.

package stmserve

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
	"github.com/stm-go/stm/stmobs"
)

// serveQueue/servePQ are the element-typed structure forms the server
// registers by name.
type (
	serveQueue = stmds.Queue[wireVal]
	servePQ    = stmds.PQ[wireVal]
)

// Config sizes a Server. The zero value of every field selects a sensible
// default; engines and sizes cannot change after New.
type Config struct {
	// Engine selects the Memory's commit protocol (stm.ST or stm.TL2).
	Engine stm.Engine
	// MemoryWords is the size of the transactional Memory backing
	// everything the server stores. Default 1<<20 words; a word is one
	// padded 64-byte line, so that is 64 MiB once every word is written.
	// Words are built 4096 at a time, on the first write to any of them.
	// The keyspace's tables come out of these words, so they bound it: a
	// default server holds at most 16,384 keys (see Capacity in the
	// package doc). Scale MemoryWords with KeyspaceHint.
	MemoryWords int
	// KeyspaceHint sizes the keyspace map for this many entries before it
	// must grow. Default 4096. The first table's room above its growth
	// trigger, at least KeyspaceHint/3 slots, must hold the fresh keys of
	// the batches (up to 128 each) that commit before growth starts.
	KeyspaceHint int
	// QueueCapacity is the element capacity of each named queue.
	// Default 1024.
	QueueCapacity int
	// PQCapacity is the element capacity of each named priority queue.
	// Default 1024.
	PQCapacity int
	// FlightEvents sizes the always-on flight recorder (rounded up to a
	// power of two). Default 1024.
	FlightEvents int
}

func (c Config) withDefaults() Config {
	if c.MemoryWords <= 0 {
		c.MemoryWords = 1 << 20
	}
	if c.KeyspaceHint <= 0 {
		c.KeyspaceHint = 4096
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 1024
	}
	if c.PQCapacity <= 0 {
		c.PQCapacity = 1024
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = 1024
	}
	return c
}

// ErrServerClosed is returned by Serve and ListenAndServe after Close.
var ErrServerClosed = errors.New("stmserve: server closed")

// Server owns the shared transactional state — one Memory, the keyspace
// map, and the named queue/priority-queue registries — plus the listener
// plumbing. All of it is driven through Sessions; every connection's
// commands commit against the same Memory, so cross-connection atomicity
// (one client's MULTI transfer is invisible in-progress to every other
// client) is the STM's atomicity, not lock discipline in this package.
type Server struct {
	cfg Config
	mem *stm.Memory
	kv  *stmds.Map[wireKey, wireVal]

	// Serving-layer telemetry (metrics.go): always-on striped metrics and
	// the flight recorder.
	met    *serverMetrics
	flight *stmobs.FlightRecorder

	// Named-structure registries. Structures are created on first write
	// reference (QPUSH, BQPOP, ZADD) and live forever; the registry maps
	// are ordinary Go maps under an RWMutex because resolution happens at
	// plan time, outside every transaction. Lookups use the m[string(b)]
	// form, which Go compiles without materializing the string.
	regMu  sync.RWMutex
	queues map[string]*serveQueue
	pqs    map[string]*servePQ

	ctx    context.Context // closed at Close; parks blocked BQPOPs out
	cancel context.CancelFunc

	connMu sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a Server and its backing Memory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	mem, err := stm.New(cfg.MemoryWords, stm.WithEngine(cfg.Engine))
	if err != nil {
		return nil, err
	}
	kv, err := stmds.NewMap[wireKey, wireVal](mem, keyCodec{}, valCodec{}, cfg.KeyspaceHint)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:    cfg,
		mem:    mem,
		kv:     kv,
		met:    newServerMetrics(),
		flight: stmobs.NewFlightRecorder(cfg.FlightEvents),
		queues: make(map[string]*serveQueue),
		pqs:    make(map[string]*servePQ),
		ctx:    ctx,
		cancel: cancel,
		lns:    make(map[net.Listener]struct{}),
		conns:  make(map[net.Conn]struct{}),
	}, nil
}

// Memory returns the server's backing Memory — the engine's observability
// attaches here: Observe sets its level (and any Observer or tracer),
// Stats reads its counters and histograms, and stmobs.Publish exports them
// on /debug/vars and /metrics.
func (s *Server) Memory() *stm.Memory { return s.mem }

// NewSession builds a Session writing replies to w. The server's TCP loop
// calls this with the connection; tests and in-process callers can pass
// any writer and drive Feed directly. The transaction bodies and the
// commit-time flush are bound to function values here, once, so the
// per-batch path loads them instead of allocating closures.
func (s *Server) NewSession(w io.Writer) *Session {
	sess := &Session{srv: s, w: w, met: &sessionMetrics{}, id: s.met.sessions.Add(1)}
	// The session context is a child of the server's: Server.Close drains
	// every parked blocking command, Session.Close just this session's.
	sess.ctx, sess.cancel = context.WithCancel(s.ctx)
	sess.batchFn = sess.runBatch
	sess.blockFn = sess.runBlocking
	sess.flushFn = sess.flush
	// Register the session's metrics stripe. The TCP loop retires it when
	// the connection ends; in-process sessions stay registered (their
	// counts keep appearing in snapshots through the live set).
	s.met.register(sess.met)
	s.flight.Record(flightSession, sess.id, 0, 0)
	return sess
}

// getQueue resolves a queue name, creating the queue when create is set
// (write references create; reads of a never-written name stay nil).
// A nil queue with a nil error means "does not exist".
func (s *Server) getQueue(name []byte, create bool) (*serveQueue, error) {
	s.regMu.RLock()
	q := s.queues[string(name)]
	s.regMu.RUnlock()
	if q != nil || !create {
		return q, nil
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if q := s.queues[string(name)]; q != nil {
		return q, nil
	}
	q, err := stmds.NewQueue[wireVal](s.mem, valCodec{}, s.cfg.QueueCapacity)
	if err != nil {
		return nil, err
	}
	s.queues[string(name)] = q
	return q, nil
}

// getPQ is getQueue for priority queues.
func (s *Server) getPQ(name []byte, create bool) (*servePQ, error) {
	s.regMu.RLock()
	pq := s.pqs[string(name)]
	s.regMu.RUnlock()
	if pq != nil || !create {
		return pq, nil
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if pq := s.pqs[string(name)]; pq != nil {
		return pq, nil
	}
	pq, err := stmds.NewPQ[wireVal](s.mem, valCodec{}, s.cfg.PQCapacity)
	if err != nil {
		return nil, err
	}
	s.pqs[string(name)] = pq
	return pq, nil
}

// Serve accepts connections on ln until Close, running one session
// goroutine per connection. It always returns a non-nil error:
// ErrServerClosed after Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.lns, ln)
		s.connMu.Unlock()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return ErrServerClosed
			default:
			}
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.handleConn(conn)
	}
}

// ListenAndServe listens on addr ("host:port") and Serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// handleConn owns one connection, split into a reader goroutine and this
// feeder. The split exists for one failure mode: a session parked inside a
// blocking command (BQPOP) holds the goroutine that would otherwise be the
// one noticing the connection's death — a client that kills its connection
// mid-BQPOP would leak the parked goroutine until server Close. The reader
// owns conn.Read, so it observes the death immediately and cancels the
// session, which unparks the blocked transaction (it replies nil into the
// dead connection, harmlessly) and lets everything drain.
//
// The reader stays zero-copy-safe with two alternating buffers and an
// unbuffered channel: Feed copies its input out of the chunk before
// returning, and the unbuffered send means the reader cannot start
// refilling a buffer until the feeder has finished Feeding the other one —
// at most one read in flight ahead of the pipeline, no steady-state
// allocation. Buffers are sized so a deeply pipelined client's whole burst
// usually arrives in one read and so one batch commit.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	s.met.accepted.Add(1)
	s.met.active.Add(1)
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.met.active.Add(-1)
	}()

	sess := s.NewSession(conn)
	// Dump-on-failure: a panic anywhere in this connection's pipeline ships
	// the flight recorder's recent-event context to stderr before the
	// process dies with the usual stack trace.
	defer func() {
		if r := recover(); r != nil {
			s.flight.Record(flightPanic, sess.id, 0, 0)
			s.DumpFlight(os.Stderr)
			panic(r)
		}
	}()
	defer sess.retire()
	type chunk struct {
		buf []byte
		n   int
	}
	var (
		ready = make(chan chunk)    // reader → feeder hand-off
		done  = make(chan struct{}) // feeder exited; unblocks reader sends
		rdone = make(chan struct{}) // reader exited; joins before conn cleanup
	)
	go func() {
		defer close(rdone)
		var bufs [2][]byte
		bufs[0] = make([]byte, 32<<10)
		bufs[1] = make([]byte, 32<<10)
		for i := 0; ; i ^= 1 {
			n, err := conn.Read(bufs[i])
			if n > 0 {
				select {
				case ready <- chunk{bufs[i], n}:
				case <-done:
					return
				}
			}
			if err != nil {
				// Dead connection: unpark any blocking command the feeder
				// is sitting in, then end the hand-off stream.
				sess.Close()
				close(ready)
				return
			}
		}
	}()

	for c := range ready {
		if err := sess.Feed(c.buf[:c.n]); err != nil {
			break
		}
	}
	close(done)
	sess.Close()
	conn.Close()
	<-rdone
}

// Close stops the server: listeners close, blocked BQPOPs unpark and
// reply nil, open connections are closed, and Close waits for the
// connection goroutines to drain. The Memory and its contents survive —
// a test can keep asserting invariants against Memory() after Close.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	s.connMu.Unlock()

	// Unpark retries first: a session blocked in BQPOP holds its
	// connection's goroutine, and closing its conn under it does not wake
	// a parked transaction — cancelling the server context does.
	s.cancel()

	s.connMu.Lock()
	s.met.killed.Add(uint64(len(s.conns)))
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return nil
}
