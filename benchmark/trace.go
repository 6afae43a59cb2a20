package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"time"
)

// Tracing records spans from this package only, around the calls into
// each layer: the listener handed to Serve is wrapped so every accepted
// connection timestamps Read return, Write call and Write return, and the
// client timestamps send-start and reply-complete on the same monotonic
// clock. The closed loop keeps one request in flight per connection, so
// the server-side stamps pair with the client's by order.

var clockBase = time.Now()

// now is nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(clockBase)) }

// reqStamp is the server side of one request.
type reqStamp struct {
	readRet   int64 // last Read return carrying the request's bytes
	writeCall int64 // first Write call carrying its replies
	writeRet  int64 // last Write return
	reads     int32
	writes    int32
	bytesIn   int32
	bytesOut  int32
}

// tracedConn is the server's end of one client connection. Its reader and
// feeder goroutines both stamp, hence the mutex; it is never contended by
// more than those two.
type tracedConn struct {
	net.Conn
	mu     sync.Mutex
	on     bool
	wrote  bool // the last event was a Write: the next Read return opens a new request
	stamps []reqStamp
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t := now()
	c.mu.Lock()
	if c.on && n > 0 && (c.wrote || len(c.stamps) == 0) {
		if len(c.stamps) < cap(c.stamps) {
			c.stamps = append(c.stamps, reqStamp{})
		} else {
			c.on = false // buffer full: the window ends early
		}
	}
	if c.on && n > 0 {
		c.wrote = false
		s := &c.stamps[len(c.stamps)-1]
		s.readRet = t
		s.reads++
		s.bytesIn += int32(n)
	}
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	i := -1
	if c.on && len(c.stamps) > 0 {
		i = len(c.stamps) - 1
		s := &c.stamps[i]
		if s.writes == 0 {
			s.writeCall = now()
		}
		s.writes++
		c.wrote = true
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	if i >= 0 {
		t := now()
		c.mu.Lock()
		// The window may have closed, or reopened on a fresh slice, while
		// the write was in the kernel.
		if c.on && i < len(c.stamps) {
			c.stamps[i].writeRet = t
			c.stamps[i].bytesOut += int32(n)
		}
		c.mu.Unlock()
	}
	return n, err
}

// start opens a recording window into buf. Call it only while no request
// is in flight on the connection.
func (c *tracedConn) start(buf []reqStamp) {
	c.mu.Lock()
	c.on, c.wrote, c.stamps = true, false, buf[:0]
	c.mu.Unlock()
}

// stop closes the window and returns what it recorded.
func (c *tracedConn) stop() []reqStamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = false
	return c.stamps
}

// tracedListener wraps every accepted connection and remembers it by the
// client's address, which is how a client finds the server end of its own
// connection.
type tracedListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[string]*tracedConn
}

func newTracedListener(ln net.Listener) *tracedListener {
	return &tracedListener{Listener: ln, conns: make(map[string]*tracedConn)}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: conn}
	l.mu.Lock()
	l.conns[conn.RemoteAddr().String()] = tc
	l.mu.Unlock()
	return tc, nil
}

func (l *tracedListener) lookup(clientAddr string) *tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[clientAddr]
}

// span is one line of the -spans file. Start and End are nanoseconds on
// the run's monotonic clock; Parent is the enclosing span's name ("" for
// the root), and (Engine, Segment, Conn, Seq) identify the request.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  string `json:"parent"`
	Conn    int    `json:"conn"`
	Seq     int    `json:"seq"`
	Engine  string `json:"engine"`
	Segment int    `json:"segment"`
}

// maxSpanRequests bounds the span buffer: the first requests of every
// traced segment and connection are kept, up to this many per run. (The
// per-layer medians are computed over every request, not over this
// sample.)
const maxSpanRequests = 1 << 14

// spanBuffer holds the run's spans in memory until the run ends.
type spanBuffer struct {
	spans []span
}

func newSpanBuffer() *spanBuffer {
	return &spanBuffer{spans: make([]span, 0, 5*maxSpanRequests)}
}

func (b *spanBuffer) add(s span) {
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, s)
	}
}

func (b *spanBuffer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range b.spans {
		if err := enc.Encode(&b.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
