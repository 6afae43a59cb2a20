package stmserve

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
)

// A Session is one client's command stream: bytes in through Feed, replies
// out through the writer it was built with. The TCP server runs one
// Session per connection; NewSession also works without a socket (tests,
// fuzzing, in-process serving, the allocation pins).
//
// Feed is the whole pipeline. Phase one parses every complete frame in the
// accumulated input and plans it: protocol state (MULTI queuing, queue
// name resolution and creation, arity and verb checks) is resolved here,
// outside any transaction, so the execution phase is a pure function of
// the plan and transactional state. Phase two executes the plan: maximal
// runs of non-blocking commands become ONE dynamic transaction
// (Memory.Atomically) in which every command runs through the stmds Tx
// forms against the shared Memory — a pipelined batch of N commands costs
// one commit, not N — with replies staged into the session's scratch
// buffer and flushed by a DTx.OnCommit action exactly once, after the
// batch's writes are installed. Blocking commands (BQPOP) run as their own
// transaction so their Retry parks only themselves. The speculative body
// may re-execute; it is safe because it only appends to the reply scratch
// above a watermark it first rewinds, and every other input was staged by
// the plan.
//
// A Session is not safe for concurrent use: Feed must be called from one
// goroutine at a time, and a Feed carrying a blocking command blocks until
// it can complete (or the session or server closes). The one exception is
// Close, which may be called from any goroutine — including concurrently
// with a Feed — to cancel the session's blocking commands; the server's
// connection reader uses it to unpark a BQPOP whose connection died under
// it.
type Session struct {
	srv    *Server
	w      io.Writer
	ctx    context.Context // cancelled by Close (or the server closing)
	cancel context.CancelFunc

	rbuf  []byte          // unconsumed input, torn frame at the front
	argsb [maxArgs][]byte // parseFrame staging

	cmds  []command // this Feed's plan, in arrival order
	mq    []command // queued MULTI commands (args in arena), across Feeds
	arena []byte    // stable arg storage for mq
	mqLo  int       // start of the open MULTI group within mq

	wbuf  []byte // staged replies
	wmark int    // rewind point for the executing batch
	werr  error  // first write error; poisons the session

	inMulti  bool
	multiErr bool // a queued command was malformed; EXEC will abort
	closing  bool // QUIT or protocol error: close after the final flush
	dirtyKV  bool // batch contained a keyspace write: run Map.Maintain after

	// Serving-layer telemetry (metrics.go). met is this session's stripe;
	// depths stages queue lengths observed inside the executing transaction
	// (rewound with the reply scratch on re-execution, folded into the
	// stripe after the commit); poisonedF marks a protocol-error death for
	// the lifecycle counters.
	met       *sessionMetrics
	id        uint64
	depths    []uint32
	poisonedF bool
	retired   atomic.Bool

	batchLo, batchHi int      // the executing batch's window into cmds
	bcmd             *command // the executing blocking command

	// Pre-bound function values: the per-commit path must not allocate.
	batchFn func(tx *stm.DTx) error
	blockFn func(tx *stm.DTx) error
	flushFn func()
}

// ErrSessionClosed reports a session that has finished: the client sent
// QUIT, committed a protocol error, or the server is shutting down. Any
// final reply has already been flushed; the caller should close the
// connection.
var ErrSessionClosed = errors.New("stmserve: session closed")

// Close cancels the session's context, unparking any blocking command the
// session is parked on (it replies nil, as on a lapsed timeout) and making
// future ones return immediately. It is the one Session method safe to
// call from another goroutine, and it is idempotent. Close does not write
// to or close the session's writer.
func (s *Session) Close() { s.cancel() }

// Done is closed when the session has been Closed (or the server is
// closing).
func (s *Session) Done() <-chan struct{} { return s.ctx.Done() }

// command ops. The reply-only ops carry protocol-state outcomes decided at
// plan time into the ordered reply stream.
const (
	opPing = iota
	opEcho
	opGet
	opSet
	opDel
	opExists
	opIncr
	opDecr
	opIncrBy
	opQPush
	opQPop
	opQLen
	opBQPop
	opZAdd
	opZPop
	opZLen
	opMulti
	opExec
	opDiscard
	opQuit
	opReplyErr
	opReplyQueued
)

// command is one planned command: the op, its argument bytes (aliasing
// rbuf for immediate commands, the arena for MULTI-queued ones), any
// queue resolved at plan time, and the EXEC group window.
type command struct {
	op    uint8
	nargs uint8
	args  [3][]byte
	q     *serveQueue
	pq    *servePQ
	msg   string // opReplyErr: the static error message
	lo    int    // opExec: group window into mq
	hi    int
	toMS  int64 // opBQPop: timeout in ms; 0 blocks until served or shutdown
}

// Static error messages: the reply path must not build strings.
const (
	msgWrongArgs   = "ERR wrong number of arguments"
	msgUnknownCmd  = "ERR unknown command"
	msgKeyLen      = "ERR key or queue name too long"
	msgValLen      = "ERR value too long"
	msgNotInt      = "ERR value is not an integer or out of range"
	msgOverflow    = "ERR increment or decrement would overflow"
	msgMapFull     = "ERR keyspace full"
	msgQueueFull   = "ERR queue full"
	msgPQFull      = "ERR priority queue full"
	msgNestedMulti = "ERR MULTI calls can not be nested"
	msgNoMulti     = "ERR EXEC without MULTI"
	msgNoMultiDisc = "ERR DISCARD without MULTI"
	msgExecAbort   = "EXECABORT Transaction discarded because of previous errors"
	msgMultiDepth  = "ERR MULTI transaction too large"
	msgOOM         = "ERR out of memory allocating queue"
	msgBadTimeout  = "ERR timeout is not an integer or out of range"
)

// maxBatch bounds how many pipelined commands one commit may carry: a
// larger batch amortizes better but owns a wider footprint for longer, so
// runaway pipelines are chopped rather than serialized against the world.
const maxBatch = 128

// maxMultiCmds bounds one MULTI group.
const maxMultiCmds = 1024

// Feed accepts the next chunk of the client's byte stream, executes every
// complete command in it (plus any torn frame completed by it), and
// flushes the replies. It returns nil to keep the stream open,
// ErrSessionClosed when the session ended cleanly (QUIT, protocol error —
// the error reply has been flushed), or the write error that poisoned the
// session. Blocking commands make Feed block; see Session.
func (s *Session) Feed(p []byte) error {
	if s.werr != nil {
		return s.werr
	}
	if s.closing {
		return ErrSessionClosed
	}
	s.rbuf = append(s.rbuf, p...)

	// Phase one: parse and plan every complete frame.
	s.cmds = s.cmds[:0]
	pos := 0
	for pos < len(s.rbuf) && !s.closing {
		nargs, n, err := parseFrame(s.rbuf[pos:], &s.argsb)
		if err == errIncomplete {
			break
		}
		if err != nil {
			// A poisoned stream: reply once, close, drop the rest.
			s.cmds = append(s.cmds, command{op: opReplyErr, msg: err.Error()})
			s.closing = true
			s.poisonedF = true
			s.srv.met.poisoned.Add(1)
			pos = len(s.rbuf)
			break
		}
		pos += n
		if nargs == 0 {
			continue
		}
		s.plan(s.argsb[:nargs])
	}
	if pos > 0 {
		s.rbuf = s.rbuf[:copy(s.rbuf, s.rbuf[pos:])]
	}

	// Phase two: execute the plan.
	s.execute()

	// Replies normally flush per batch through OnCommit; anything still
	// staged (nothing ran, or an abort path) goes out now.
	s.flush()
	if !s.inMulti {
		s.mq = s.mq[:0]
		s.arena = s.arena[:0]
		s.mqLo = 0
	}
	if s.werr != nil {
		return s.werr
	}
	if s.closing {
		return ErrSessionClosed
	}
	return nil
}

// plan turns one parsed frame (args[0] is the verb) into plan entries,
// resolving every protocol-state question — MULTI queuing, queue
// creation, arity — outside the transactions that will execute it.
func (s *Session) plan(args [][]byte) {
	op, ok := lookupVerb(args[0])
	if !ok {
		s.planErr(msgUnknownCmd)
		return
	}
	c := command{op: op, nargs: uint8(len(args) - 1)}
	for i := 1; i < len(args); i++ {
		c.args[i-1] = args[i]
	}
	if !arityOK(op, len(args)-1) {
		s.planErr(msgWrongArgs)
		return
	}

	// Protocol-state commands run here, not in a transaction.
	switch op {
	case opMulti:
		if s.inMulti {
			s.cmds = append(s.cmds, command{op: opReplyErr, msg: msgNestedMulti})
			return
		}
		s.inMulti = true
		s.multiErr = false
		s.cmds = append(s.cmds, c)
		return
	case opExec:
		if !s.inMulti {
			s.cmds = append(s.cmds, command{op: opReplyErr, msg: msgNoMulti})
			return
		}
		s.inMulti = false
		if s.multiErr {
			s.mq = s.mq[:s.mqLo]
			s.cmds = append(s.cmds, command{op: opReplyErr, msg: msgExecAbort})
			return
		}
		c.lo, c.hi = s.mqLo, len(s.mq)
		s.mqLo = len(s.mq)
		s.cmds = append(s.cmds, c)
		return
	case opDiscard:
		if !s.inMulti {
			s.cmds = append(s.cmds, command{op: opReplyErr, msg: msgNoMultiDisc})
			return
		}
		s.inMulti = false
		s.mq = s.mq[:s.mqLo]
		s.cmds = append(s.cmds, c)
		return
	case opQuit:
		s.closing = true
		s.cmds = append(s.cmds, c)
		return
	}

	if !s.resolve(&c) {
		return // resolve planned the error entry
	}
	if s.inMulti {
		if len(s.mq)-s.mqLo >= maxMultiCmds {
			s.multiErr = true
			s.planErr(msgMultiDepth)
			return
		}
		// Queued args must survive until EXEC, which may be many reads
		// away; copy them out of rbuf into the session arena.
		for i := 0; i < int(c.nargs); i++ {
			c.args[i] = s.arenaCopy(c.args[i])
		}
		s.mq = append(s.mq, c)
		s.cmds = append(s.cmds, command{op: opReplyQueued})
		return
	}
	s.cmds = append(s.cmds, c)
}

// planErr appends an error-reply entry; inside MULTI it also marks the
// group aborted (Redis EXECABORT semantics: a malformed queued command
// fails the whole EXEC).
func (s *Session) planErr(msg string) {
	if s.inMulti {
		s.multiErr = true
	}
	s.cmds = append(s.cmds, command{op: opReplyErr, msg: msg})
}

// resolve binds a data command to its queue (creating on first write) and
// parses plan-time arguments. It reports false after planning an error
// entry itself.
func (s *Session) resolve(c *command) bool {
	switch c.op {
	case opQPush, opQPop, opQLen, opBQPop:
		if len(c.args[0]) > MaxKeyBytes {
			s.planErr(msgKeyLen)
			return false
		}
		create := c.op == opQPush || c.op == opBQPop
		q, err := s.srv.getQueue(c.args[0], create)
		if err != nil {
			s.planErr(msgOOM)
			return false
		}
		c.q = q
		if c.op == opBQPop {
			c.toMS = 0
			if c.nargs == 2 {
				ms, ok := parseUint64(c.args[1])
				if !ok || ms > 1<<31 {
					s.planErr(msgBadTimeout)
					return false
				}
				c.toMS = int64(ms)
			}
		}
	case opZAdd, opZPop, opZLen:
		if len(c.args[0]) > MaxKeyBytes {
			s.planErr(msgKeyLen)
			return false
		}
		pq, err := s.srv.getPQ(c.args[0], c.op == opZAdd)
		if err != nil {
			s.planErr(msgOOM)
			return false
		}
		c.pq = pq
	}
	return true
}

// arenaCopy stores b in the session arena and returns the stable copy.
// (Arena growth leaves earlier copies pointing into the outgrown backing
// array, which stays valid and immutable — no rescue pass needed.)
func (s *Session) arenaCopy(b []byte) []byte {
	n := len(s.arena)
	s.arena = append(s.arena, b...)
	return s.arena[n : n+len(b) : n+len(b)]
}

// execute runs the plan: maximal non-blocking runs as single batched
// commits, blocking commands alone.
func (s *Session) execute() {
	i := 0
	for i < len(s.cmds) && s.werr == nil {
		if s.cmds[i].op == opBQPop {
			s.execBlocking(&s.cmds[i])
			i++
			continue
		}
		j := i
		for j < len(s.cmds) && s.cmds[j].op != opBQPop && j-i < maxBatch {
			j++
		}
		s.batchLo, s.batchHi = i, j
		s.wmark = len(s.wbuf)
		t0 := stm.NowTicks()
		_ = s.srv.mem.Atomically(s.batchFn) // the body never returns an error
		s.recordBatch(i, j, stm.NowTicks()-t0)
		if s.dirtyKV {
			// Keyspace maintenance (incremental resize, growth trigger)
			// cannot run inside the batch transaction; amortize it here.
			s.dirtyKV = false
			_ = s.srv.kv.Maintain()
		}
		i = j
	}
}

// recordBatch folds one committed batch into the session's metrics stripe
// and the flight recorder: per-class counters, per-class latency (every
// command in the batch is charged the batch's commit-to-commit duration —
// that IS the latency the client observed for it), the batch-size
// distribution, and the queue depths staged by the transaction body.
func (s *Session) recordBatch(lo, hi int, dt uint64) {
	bkt := stm.HistBucket(dt)
	for i := lo; i < hi; i++ {
		c := &s.cmds[i]
		s.recordCmd(c.op, bkt, dt)
		if c.op == opExec {
			for j := c.lo; j < c.hi; j++ {
				s.recordCmd(s.mq[j].op, bkt, dt)
			}
		}
	}
	s.met.batch[stm.HistBucket(uint64(hi-lo))].Add(1)
	s.srv.flight.Record(flightBatch, s.id, uint64(hi-lo), dt)
	s.foldDepths()
}

// recordCmd charges one executed command to its class.
func (s *Session) recordCmd(op uint8, bkt int, dt uint64) {
	cl := classOf[op]
	s.met.cmds[cl].Add(1)
	s.met.lat[cl][bkt].Add(1)
	s.srv.flight.Record(flightCmd, s.id, uint64(cl), dt)
}

// foldDepths drains the staged queue-depth observations into the stripe.
func (s *Session) foldDepths() {
	for _, d := range s.depths {
		s.met.qdepth[stm.HistBucket(uint64(d))].Add(1)
	}
	s.depths = s.depths[:0]
}

// retire releases the session's metrics stripe into the server totals and
// records the session-close flight event. Idempotent; the TCP loop calls
// it when the connection ends.
func (s *Session) retire() {
	if !s.retired.CompareAndSwap(false, true) {
		return
	}
	how := uint64(1)
	if s.poisonedF {
		how = 2
	}
	s.srv.flight.Record(flightSession, s.id, how, 0)
	s.srv.met.retire(s.met)
}

// runBatch is the batch transaction body: rewind the reply scratch to the
// batch watermark (the body may re-execute), run every command in the
// window through the shared Memory, and defer the flush to the commit.
func (s *Session) runBatch(tx *stm.DTx) error {
	s.wbuf = s.wbuf[:s.wmark]
	s.depths = s.depths[:0] // staged observations rewind with the scratch
	for i := s.batchLo; i < s.batchHi; i++ {
		s.execCmd(tx, &s.cmds[i])
	}
	tx.OnCommit(s.flushFn)
	return nil
}

// execBlocking runs one BQPOP as its own transaction: TakeTx parks the
// session on DTx.Retry until an element arrives, the timeout lapses, or
// the server closes. Timeout and shutdown reply nil, like a lapsed Redis
// BLPOP.
func (s *Session) execBlocking(c *command) {
	s.wmark = len(s.wbuf)
	s.bcmd = c
	ctx := s.ctx
	var cancel context.CancelFunc
	if c.toMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(c.toMS)*time.Millisecond)
	}
	t0 := stm.NowTicks()
	err := s.srv.mem.AtomicallyContext(ctx, s.blockFn)
	dt := stm.NowTicks() - t0
	if cancel != nil {
		cancel()
	}
	if err != nil {
		s.depths = s.depths[:0] // nothing was taken; drop the staged depth
		s.wbuf = s.wbuf[:s.wmark]
		s.wbuf = appendNilBulk(s.wbuf)
		s.flush()
	}
	// A blocking command is charged its whole wait (that is its
	// client-observed latency), served or lapsed.
	s.recordCmd(opBQPop, stm.HistBucket(dt), dt)
	s.foldDepths()
}

// runBlocking is the blocking-pop transaction body.
func (s *Session) runBlocking(tx *stm.DTx) error {
	s.wbuf = s.wbuf[:s.wmark]
	s.depths = s.depths[:0]
	v := s.bcmd.q.TakeTx(tx)
	s.depths = append(s.depths, uint32(s.bcmd.q.LenTx(tx)))
	s.wbuf = appendBulk(s.wbuf, v.bytes())
	tx.OnCommit(s.flushFn)
	return nil
}

// flush writes the staged replies to the session writer. Batches invoke it
// through DTx.OnCommit — the deferred external effect of the commit — so a
// reply is never on the wire before the state it reports is installed.
func (s *Session) flush() {
	if len(s.wbuf) == 0 || s.werr != nil {
		return
	}
	if _, err := s.w.Write(s.wbuf); err != nil {
		s.werr = err
	}
	s.wbuf = s.wbuf[:0]
	s.wmark = 0
}

// execCmd executes one command against the transaction and appends its
// reply. It must stay a pure function of (command, transactional state):
// the batch body re-executes on contention. The only session state it
// touches is the reply scratch (rewound by the body) and monotone flags.
func (s *Session) execCmd(tx *stm.DTx, c *command) {
	switch c.op {
	case opPing:
		s.wbuf = appendSimple(s.wbuf, "PONG")
	case opEcho:
		s.wbuf = appendBulk(s.wbuf, c.args[0])
	case opGet:
		k, ok := keyFromBytes(c.args[0])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgKeyLen)
			return
		}
		if v, found := s.srv.kv.GetTx(tx, k); found {
			s.wbuf = appendBulk(s.wbuf, v.bytes())
		} else {
			s.wbuf = appendNilBulk(s.wbuf)
		}
	case opSet:
		k, ok := keyFromBytes(c.args[0])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgKeyLen)
			return
		}
		v, ok := valFromBytes(c.args[1])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgValLen)
			return
		}
		if _, _, err := s.srv.kv.PutTx(tx, k, v); err != nil {
			s.wbuf = appendError(s.wbuf, msgMapFull)
			return
		}
		s.dirtyKV = true
		s.wbuf = appendSimple(s.wbuf, "OK")
	case opDel:
		k, ok := keyFromBytes(c.args[0])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgKeyLen)
			return
		}
		_, found := s.srv.kv.DeleteTx(tx, k)
		s.dirtyKV = true
		s.wbuf = appendInteger(s.wbuf, boolInt(found))
	case opExists:
		k, ok := keyFromBytes(c.args[0])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgKeyLen)
			return
		}
		_, found := s.srv.kv.GetTx(tx, k)
		s.wbuf = appendInteger(s.wbuf, boolInt(found))
	case opIncr:
		s.execIncr(tx, c, 1, nil)
	case opDecr:
		s.execIncr(tx, c, -1, nil)
	case opIncrBy:
		s.execIncr(tx, c, 0, c.args[1])
	case opQPush:
		v, ok := valFromBytes(c.args[1])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgValLen)
			return
		}
		if !c.q.TryPutTx(tx, v) {
			s.wbuf = appendError(s.wbuf, msgQueueFull)
			return
		}
		n := int64(c.q.LenTx(tx))
		s.depths = append(s.depths, uint32(n))
		s.wbuf = appendInteger(s.wbuf, n)
	case opQPop, opBQPop: // opBQPop only lands here inside EXEC: non-blocking
		if c.q == nil {
			s.wbuf = appendNilBulk(s.wbuf)
			return
		}
		if v, ok := c.q.TryTakeTx(tx); ok {
			s.wbuf = appendBulk(s.wbuf, v.bytes())
		} else {
			s.wbuf = appendNilBulk(s.wbuf)
		}
	case opQLen:
		if c.q == nil {
			s.wbuf = appendInteger(s.wbuf, 0)
			return
		}
		s.wbuf = appendInteger(s.wbuf, int64(c.q.LenTx(tx)))
	case opZAdd:
		prio, ok := parseUint64(c.args[1])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgNotInt)
			return
		}
		v, ok := valFromBytes(c.args[2])
		if !ok {
			s.wbuf = appendError(s.wbuf, msgValLen)
			return
		}
		if !c.pq.TryPushTx(tx, v, prio) {
			s.wbuf = appendError(s.wbuf, msgPQFull)
			return
		}
		s.wbuf = appendInteger(s.wbuf, 1)
	case opZPop:
		if c.pq == nil {
			s.wbuf = appendNilArray(s.wbuf)
			return
		}
		v, prio, ok := c.pq.TryTakeMinTx(tx)
		if !ok {
			s.wbuf = appendNilArray(s.wbuf)
			return
		}
		s.wbuf = appendArrayHeader(s.wbuf, 2)
		s.wbuf = appendInteger(s.wbuf, int64(prio))
		s.wbuf = appendBulk(s.wbuf, v.bytes())
	case opZLen:
		if c.pq == nil {
			s.wbuf = appendInteger(s.wbuf, 0)
			return
		}
		s.wbuf = appendInteger(s.wbuf, int64(c.pq.LenTx(tx)))
	case opMulti, opDiscard, opQuit:
		s.wbuf = appendSimple(s.wbuf, "OK")
	case opExec:
		s.wbuf = appendArrayHeader(s.wbuf, c.hi-c.lo)
		for i := c.lo; i < c.hi; i++ {
			s.execCmd(tx, &s.mq[i])
		}
	case opReplyErr:
		s.wbuf = appendError(s.wbuf, c.msg)
	case opReplyQueued:
		s.wbuf = appendSimple(s.wbuf, "QUEUED")
	}
}

// execIncr is the INCR family: read-parse-add-store as one transactional
// step. delta is fixed for INCR/DECR; INCRBY parses deltaArg instead.
func (s *Session) execIncr(tx *stm.DTx, c *command, delta int64, deltaArg []byte) {
	k, ok := keyFromBytes(c.args[0])
	if !ok {
		s.wbuf = appendError(s.wbuf, msgKeyLen)
		return
	}
	if deltaArg != nil {
		d, ok := parseInt64(deltaArg)
		if !ok {
			s.wbuf = appendError(s.wbuf, msgNotInt)
			return
		}
		delta = d
	}
	var cur int64
	if v, found := s.srv.kv.GetTx(tx, k); found {
		n, ok := parseInt64(v.bytes())
		if !ok {
			s.wbuf = appendError(s.wbuf, msgNotInt)
			return
		}
		cur = n
	}
	next := cur + delta
	if (delta > 0 && next < cur) || (delta < 0 && next > cur) {
		s.wbuf = appendError(s.wbuf, msgOverflow)
		return
	}
	nv := valFromInt(next)
	if _, _, err := s.srv.kv.PutTx(tx, k, nv); err != nil {
		s.wbuf = appendError(s.wbuf, msgMapFull)
		return
	}
	s.dirtyKV = true
	s.wbuf = appendInteger(s.wbuf, next)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// lookupVerb resolves a command verb, ASCII case-insensitively, without
// allocating.
func lookupVerb(b []byte) (op uint8, ok bool) {
	switch len(b) {
	case 3:
		switch {
		case eqFold(b, "GET"):
			return opGet, true
		case eqFold(b, "SET"):
			return opSet, true
		case eqFold(b, "DEL"):
			return opDel, true
		}
	case 4:
		switch {
		case eqFold(b, "PING"):
			return opPing, true
		case eqFold(b, "ECHO"):
			return opEcho, true
		case eqFold(b, "INCR"):
			return opIncr, true
		case eqFold(b, "DECR"):
			return opDecr, true
		case eqFold(b, "QPOP"):
			return opQPop, true
		case eqFold(b, "QLEN"):
			return opQLen, true
		case eqFold(b, "ZADD"):
			return opZAdd, true
		case eqFold(b, "ZPOP"):
			return opZPop, true
		case eqFold(b, "ZLEN"):
			return opZLen, true
		case eqFold(b, "EXEC"):
			return opExec, true
		case eqFold(b, "QUIT"):
			return opQuit, true
		}
	case 5:
		switch {
		case eqFold(b, "MULTI"):
			return opMulti, true
		case eqFold(b, "QPUSH"):
			return opQPush, true
		case eqFold(b, "BQPOP"):
			return opBQPop, true
		}
	case 6:
		switch {
		case eqFold(b, "EXISTS"):
			return opExists, true
		case eqFold(b, "INCRBY"):
			return opIncrBy, true
		}
	case 7:
		if eqFold(b, "DISCARD") {
			return opDiscard, true
		}
	}
	return 0, false
}

// arityOK checks a verb's argument count (verb excluded).
func arityOK(op uint8, n int) bool {
	switch op {
	case opPing, opMulti, opExec, opDiscard, opQuit:
		return n == 0
	case opEcho, opGet, opDel, opExists, opIncr, opDecr, opQPop, opQLen, opZPop, opZLen:
		return n == 1
	case opSet, opIncrBy, opQPush, opZAdd:
		if op == opZAdd {
			return n == 3
		}
		return n == 2
	case opBQPop:
		return n == 1 || n == 2
	}
	return false
}

// eqFold reports b == s under ASCII case folding, allocation-free.
func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
