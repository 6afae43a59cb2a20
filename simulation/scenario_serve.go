// The serve scenario: a real stmserve TCP server on loopback, driven the
// way the paper's machinery will actually be hit in anger — pipelined
// MULTI transfer groups from many connections, whole-keyspace MULTI
// snapshot audits, and a queue flow — while a seeded killer closes client
// connections mid-pipeline. The server's Memory is attached to the run,
// so the engine chaos points park its commits too; the invariants prove
// that MULTI atomicity and the reader/feeder connection plumbing survive
// both kinds of violence.

package simulation

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stm-go/stm/stmserve"
)

const (
	serveAccounts = 8
	serveInitial  = 1000
	serveQueue    = "fq"
)

type serveScenario struct{}

// Serve returns the TCP server scenario. The server builds its own Memory,
// so only the engine and fault dimensions vary.
func Serve() Scenario { return serveScenario{} }

func (serveScenario) Name() string { return "serve" }

// respClient is the minimal blocking RESP client the scenario drives the
// server with: write a pipelined request string, read replies one at a
// time. Arrays flatten; nil bulks/arrays read as "<nil>"; -ERR replies
// surface as errors.
type respClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialClient(addr string) (*respClient, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &respClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *respClient) send(s string) error {
	_, err := io.WriteString(c.conn, s)
	return err
}

func (c *respClient) readReply() ([]string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return nil, fmt.Errorf("empty reply line")
	}
	switch line[0] {
	case '+', ':':
		return []string{line[1:]}, nil
	case '-':
		return nil, fmt.Errorf("server error: %s", line[1:])
	case '$':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return []string{"<nil>"}, nil
		}
		buf := make([]byte, n+2) // value + CRLF
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return nil, err
		}
		return []string{string(buf[:n])}, nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return []string{"<nil>"}, nil
		}
		var out []string
		for i := 0; i < n; i++ {
			vals, err := c.readReply()
			if err != nil {
				return nil, err
			}
			out = append(out, vals...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("bad reply line %q", line)
}

// readN reads n replies, returning the last (for a pipelined burst whose
// final reply — the EXEC array — carries the data).
func (c *respClient) readN(n int) ([]string, error) {
	var last []string
	for i := 0; i < n; i++ {
		vals, err := c.readReply()
		if err != nil {
			return nil, err
		}
		last = vals
	}
	return last, nil
}

func (c *respClient) close() {
	if c != nil {
		c.conn.Close()
	}
}

// connTable registers the connections the killer may close. Producers and
// consumers stay out of it: their flow counters count only acknowledged
// operations, and a kill between a server-side commit and the client
// reading its reply would desynchronize the final queue balance through
// no fault of the server's.
type connTable struct {
	mu    sync.Mutex
	conns map[int]net.Conn
}

func newConnTable() *connTable { return &connTable{conns: make(map[int]net.Conn)} }

func (t *connTable) set(id int, c net.Conn) {
	t.mu.Lock()
	t.conns[id] = c
	t.mu.Unlock()
}

func (t *connTable) clear(id int) {
	t.mu.Lock()
	delete(t.conns, id)
	t.mu.Unlock()
}

// killOne closes an arbitrary registered connection (map iteration order
// supplies the arbitrariness; the decision WHEN to kill is the seeded
// part). Reports whether anything was killed.
func (t *connTable) killOne() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, c := range t.conns {
		c.Close()
		delete(t.conns, id)
		return true
	}
	return false
}

func (serveScenario) Run(env *Env) error {
	srv, err := stmserve.New(stmserve.Config{
		Engine:       env.Config().Engine,
		MemoryWords:  1 << 16,
		KeyspaceHint: 64,
	})
	if err != nil {
		return err
	}
	env.Attach(srv.Memory())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// Seed the accounts through one connection before anything races.
	setup, err := dialClient(addr)
	if err != nil {
		return err
	}
	var req strings.Builder
	for i := 0; i < serveAccounts; i++ {
		fmt.Fprintf(&req, "SET acct:%d %d\r\n", i, serveInitial)
	}
	if err := setup.send(req.String()); err != nil {
		return err
	}
	if _, err := setup.readN(serveAccounts); err != nil {
		return err
	}
	setup.close()

	table := newConnTable()
	var wg sync.WaitGroup

	// Transfer writers: each owns a (killable, redialable) connection and
	// moves money between random accounts with one MULTI group per round
	// trip. A dead connection mid-group costs nothing: EXEC is what
	// commits, and a group whose EXEC never arrived is discarded with the
	// session.
	for w := 0; w < env.Workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := env.Stream(uint64(w))
			var c *respClient
			defer func() { c.close() }()
			for !env.Stopped() {
				if c == nil {
					nc, err := dialClient(addr)
					if err != nil {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					c = nc
					table.set(w, c.conn)
				}
				a, b := rng.Intn(serveAccounts), rng.Intn(serveAccounts)
				amt := rng.Intn(50) + 1
				if a == b {
					continue
				}
				err := c.send(fmt.Sprintf("MULTI\r\nINCRBY acct:%d -%d\r\nINCRBY acct:%d %d\r\nEXEC\r\n", a, amt, b, amt))
				if err == nil {
					_, err = c.readN(4) // +OK, 2×+QUEUED, EXEC array
				}
				if err != nil {
					table.clear(w)
					c.close()
					c = nil
					continue
				}
				env.Op()
			}
		}(w)
	}

	// Snapshot auditors: one MULTI of GETs over every account; the EXEC
	// array is one atomic keyspace snapshot, so its sum is conserved no
	// matter how many transfers are in flight.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			id := 1000 + a
			var audit strings.Builder
			audit.WriteString("MULTI\r\n")
			for i := 0; i < serveAccounts; i++ {
				fmt.Fprintf(&audit, "GET acct:%d\r\n", i)
			}
			audit.WriteString("EXEC\r\n")
			reqStr := audit.String()
			var c *respClient
			defer func() { c.close() }()
			for !env.Stopped() {
				if c == nil {
					nc, err := dialClient(addr)
					if err != nil {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					c = nc
					table.set(id, c.conn)
				}
				err := c.send(reqStr)
				var vals []string
				if err == nil {
					vals, err = c.readN(2 + serveAccounts) // +OK, QUEUEDs, EXEC array
				}
				if err != nil {
					table.clear(id)
					c.close()
					c = nil
					continue
				}
				sum, bad := 0, false
				for _, v := range vals {
					n, err := strconv.Atoi(v)
					if err != nil {
						bad = true
						break
					}
					sum += n
				}
				if bad {
					env.Violatef("serve: audit snapshot returned non-integer %v", vals)
					return
				}
				if sum != serveAccounts*serveInitial {
					env.Violatef("serve: conservation broken over MULTI snapshot: sum %d, want %d",
						sum, serveAccounts*serveInitial)
					return
				}
				env.Checked()
			}
		}(a)
	}

	// Queue flow: one producer QPUSHes, one consumer BQPOPs (with a
	// timeout so shutdown stays responsive). Both count only acknowledged
	// operations, and any connection error poisons the final balance
	// check instead of faking a violation.
	var pushed, popped atomic.Int64
	var flowDirty atomic.Bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		c, err := dialClient(addr)
		if err != nil {
			flowDirty.Store(true)
			return
		}
		defer c.close()
		for !env.Stopped() {
			if err := c.send("QPUSH " + serveQueue + " tok\r\n"); err == nil {
				_, err = c.readReply()
			}
			if err != nil {
				flowDirty.Store(true)
				return
			}
			pushed.Add(1)
			env.Op()
		}
	}()
	go func() {
		defer wg.Done()
		c, err := dialClient(addr)
		if err != nil {
			flowDirty.Store(true)
			return
		}
		defer c.close()
		for !env.Stopped() {
			var vals []string
			if err := c.send("BQPOP " + serveQueue + " 50\r\n"); err == nil {
				vals, err = c.readReply()
			}
			if err != nil {
				flowDirty.Store(true)
				return
			}
			if len(vals) == 1 && vals[0] != "<nil>" {
				popped.Add(1)
				env.Op()
			}
		}
	}()

	// The killer: at seeded intervals, close one registered connection
	// mid-whatever-it-was-doing.
	if env.FaultsOn() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := env.Stream(0xC0DE)
			for !env.Stopped() {
				gap := time.Duration(20+rng.Intn(60)) * time.Millisecond
				select {
				case <-env.Ctx().Done():
					return
				case <-time.After(gap):
				}
				if table.killOne() {
					env.CountConnKill()
				}
			}
		}()
	}

	wg.Wait()

	// Teardown: all acknowledged traffic has stopped, so the queue must
	// hold exactly the unconsumed acknowledged pushes.
	if !flowDirty.Load() {
		c, err := dialClient(addr)
		if err != nil {
			return err
		}
		defer c.close()
		if err := c.send("QLEN " + serveQueue + "\r\n"); err != nil {
			return err
		}
		vals, err := c.readReply()
		if err != nil {
			return err
		}
		qlen, err := strconv.Atoi(vals[0])
		if err != nil {
			return fmt.Errorf("serve: bad QLEN reply %v", vals)
		}
		if int64(qlen) != pushed.Load()-popped.Load() {
			env.Violatef("serve: queue flow imbalance: pushed %d - popped %d != QLEN %d",
				pushed.Load(), popped.Load(), qlen)
		}
		env.Checked()
	}
	return nil
}
