package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmserve"
)

// tcpClient is one closed-loop connection: it sends a request, reads and
// verifies every reply, and only then sends the next.
type tcpClient struct {
	*worker
	conn  net.Conn
	gen   *generator
	ver   verifier
	wbuf  []byte
	trace *tracedConn // the server's end of conn, when tracing
}

// roundTrip sends one request and verifies its replies.
func (c *tcpClient) roundTrip(ops []op) {
	c.wbuf = appendRequest(c.wbuf[:0], ops)
	c.attempted += uint64(len(ops))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.failed += uint64(len(ops))
		c.err = err
		return
	}
	failed, err := c.ver.check(ops)
	c.failed += uint64(failed)
	c.err = err
}

func (c *tcpClient) loop(deadline time.Time, record bool) {
	for c.err == nil {
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		ops := c.gen.next()
		failedBefore := c.failed
		c.roundTrip(ops)
		if record && c.err == nil {
			c.sample(start, time.Since(start))
			c.ops += uint64(len(ops)) - (c.failed - failedBefore)
		}
	}
}

// populate stores this client's share of the keys, 64 SETs per write.
func (c *tcpClient) populate(w *workload, clients int) error {
	const batch = 64
	pending := 0
	flush := func() error {
		if pending == 0 {
			return nil
		}
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			rp, err := c.ver.rr.next()
			if err != nil {
				return err
			}
			if !rp.isSimple("OK") {
				return fmt.Errorf("populate: unexpected reply %c%s", rp.kind, rp.data)
			}
		}
		c.wbuf = c.wbuf[:0]
		return nil
	}
	c.wbuf = c.wbuf[:0]
	for i := c.id; i < w.keys; i += clients {
		c.wbuf = appendPopulate(c.wbuf, w, int32(i))
		if pending++; pending == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// tcpSystem is one segment's server and its connected clients.
type tcpSystem struct {
	srv       *stmserve.Server
	ln        *tracedListener // nil unless traced
	clients   []*tcpClient
	serveDone chan struct{}
}

// startTCP builds what a segment measures: a server with the shipped
// configuration on a loopback port, one connection per client, and the
// workload's keys in place.
func startTCP(cfg *runConfig, eng stm.Engine, traced bool, ws []*worker) (*tcpSystem, error) {
	srv, err := stmserve.New(stmserve.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	sys := &tcpSystem{srv: srv, serveDone: make(chan struct{})}
	serveLn := ln
	if traced {
		sys.ln = newTracedListener(ln)
		serveLn = sys.ln
		srv.Memory().Observe(stm.ObsConfig{Level: stm.ObsCounters})
	}
	go func() {
		defer close(sys.serveDone)
		_ = srv.Serve(serveLn) // always ErrServerClosed after Close
	}()

	// A reply still missing replyTimeout after the segment should have
	// ended counts as a failure; one deadline for the whole segment keeps
	// timer traffic off the measured path.
	deadline := time.Now().Add(cfg.warm + cfg.measure + replyTimeout)
	for _, wk := range ws {
		wk.reset(traced)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			sys.close()
			return nil, err
		}
		if err := conn.SetDeadline(deadline); err != nil {
			conn.Close()
			sys.close()
			return nil, err
		}
		sys.clients = append(sys.clients, &tcpClient{
			worker: wk,
			conn:   conn,
			gen:    newGenerator(cfg.w, cfg.seed, wk.id),
			ver:    verifier{rr: newReplyReader(conn)},
			wbuf:   make([]byte, 0, 16<<10),
		})
	}
	errs := make([]error, len(sys.clients))
	runPhase(len(sys.clients), 0, func(i int, _ time.Time) {
		errs[i] = sys.clients[i].populate(cfg.w, len(sys.clients))
	})
	if err := errors.Join(errs...); err != nil {
		sys.close()
		return nil, err
	}
	if traced {
		// Every client has had a round trip, so every accept has happened.
		for _, c := range sys.clients {
			if c.trace = sys.ln.lookup(c.conn.LocalAddr().String()); c.trace == nil {
				sys.close()
				return nil, fmt.Errorf("no server-side connection for client %d", c.id)
			}
		}
	}
	return sys, nil
}

func (sys *tcpSystem) close() {
	for _, c := range sys.clients {
		c.conn.Close()
	}
	sys.srv.Close()
	<-sys.serveDone
}

func (sys *tcpSystem) phase(d time.Duration, record bool) time.Duration {
	return runPhase(len(sys.clients), d, func(i int, deadline time.Time) {
		sys.clients[i].loop(deadline, record)
	})
}

func (sys *tcpSystem) readCounters(c *counters) {
	readCounters(sys.srv.Memory(), c)
	c.commits = sys.srv.Metrics().BatchCommands.Total()
}

// runTCPSegment measures one segment of a TCP workload.
func runTCPSegment(cfg *runConfig, eng stm.Engine, seg int, traced bool, ws []*worker) (*segResult, error) {
	begin := time.Now()
	sys, err := startTCP(cfg, eng, traced, ws)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	r := &segResult{setup: time.Since(begin)}

	sys.phase(cfg.warm, false)
	var before, after counters
	if traced {
		for _, c := range sys.clients {
			c.trace.start(c.stamps)
		}
		sys.readCounters(&before)
	}
	r.elapsed = sys.phase(cfg.measure, true)
	if traced {
		sys.readCounters(&after)
	}

	// Final conservation: after every transfer has been answered the
	// accounts still hold what they started with.
	if cfg.w.transfer && sys.clients[0].err == nil {
		sys.clients[0].roundTrip([]op{{kind: opSnapshot}})
	}
	if err := r.collect(ws); err != nil {
		return nil, err
	}
	if traced {
		r.layer = map[string]float64{
			"stmserve.ops_per_commit": float64(r.ops) / float64(after.commits-before.commits),
			"stmserve.conns_poisoned": float64(sys.srv.Metrics().ConnsPoisoned),
			"core.words_allocated":    float64(sys.srv.Memory().WordsAllocated()),
		}
		layerCounters(r.layer, eng, &before, &after, r.ops, r.elapsed)
		sys.layerSpans(cfg, eng, seg, r)
	}
	return r, nil
}

// layerSpans pairs each client's stamps with the server's, by order, and
// turns them into the tcp.* and stmserve.handle_us values of the segment
// and the spans of its first requests.
//
// Medians of parts do not add up to the median of the whole, so the four
// children are reported for the median request instead: each is its mean
// over the requests whose round trip lies between the 45th and the 55th
// percentile of the segment's. Their sum is the mean round trip of that
// band, which is the median to within the band's width.
func (sys *tcpSystem) layerSpans(cfg *runConfig, eng stm.Engine, seg int, r *segResult) {
	type parts struct{ rtt, in, handle, write, out int64 }
	var reqs []parts
	var rtts []int64
	var reads, writes, bytesIn, bytesOut float64
	keep := maxSpanRequests / (len(engines) * cfg.segments * len(sys.clients))
	for _, c := range sys.clients {
		stamps := c.trace.stop()
		n := min(len(stamps), len(c.t0))
		for j := 0; j < n; j++ {
			s := &stamps[j]
			t0, t3 := c.t0[j], c.t0[j]+c.lat[j]
			reqs = append(reqs, parts{
				rtt: t3 - t0, in: s.readRet - t0, handle: s.writeCall - s.readRet,
				write: s.writeRet - s.writeCall, out: t3 - s.writeRet,
			})
			rtts = append(rtts, t3-t0)
			reads += float64(s.reads)
			writes += float64(s.writes)
			bytesIn += float64(s.bytesIn)
			bytesOut += float64(s.bytesOut)
			if j < keep {
				id := span{Conn: c.id, Seq: j, Engine: eng.String(), Segment: seg}
				add := func(name, parent string, start, end int64) {
					id.Name, id.Parent, id.Start, id.End = name, parent, start, max(start, end)
					cfg.spans.add(id)
				}
				add("rtt", "", t0, t3)
				add("tcp.in", "rtt", t0, s.readRet)
				add("stmserve.handle", "rtt", s.readRet, s.writeCall)
				add("tcp.write", "rtt", s.writeCall, s.writeRet)
				// The reply can be complete at the client before the server's
				// Write has returned.
				add("tcp.out", "rtt", min(s.writeRet, t3), t3)
			}
		}
	}
	if len(reqs) == 0 {
		return
	}
	slices.Sort(rtts)
	lo, hi := percentile(rtts, 0.45), percentile(rtts, 0.55)
	var sum parts
	var band float64
	for _, q := range reqs {
		if q.rtt >= lo && q.rtt <= hi {
			sum.in += q.in
			sum.handle += q.handle
			sum.write += q.write
			sum.out += q.out
			band++
		}
	}
	n := float64(len(reqs))
	opsPerReq := float64(cfg.w.depth)
	r.layer["tcp.in_us"] = float64(sum.in) / band / 1e3
	r.layer["stmserve.handle_us"] = float64(sum.handle) / band / 1e3
	r.layer["tcp.write_us"] = float64(sum.write) / band / 1e3
	r.layer["tcp.out_us"] = float64(sum.out) / band / 1e3
	r.layer["tcp.reads_per_req"] = reads / n
	r.layer["tcp.writes_per_req"] = writes / n
	r.layer["tcp.bytes_in_per_op"] = bytesIn / n / opsPerReq
	r.layer["tcp.bytes_out_per_op"] = bytesOut / n / opsPerReq
}
