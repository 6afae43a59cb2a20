package stmserve

// End-to-end server tests: command semantics driven through Session.Feed,
// and concurrency tests over a real TCP listener — N clients hammering
// INCR and MULTI transfers while invariants that only hold under true
// atomicity (value conservation across accounts) are asserted on both
// engines.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/simrand"
	"github.com/stm-go/stm/internal/xrand"
)

func forEachEngine(t *testing.T, f func(t *testing.T, eng stm.Engine)) {
	for _, e := range stm.Engines() {
		t.Run("engine="+e.String(), func(t *testing.T) { f(t, e) })
	}
}

func newTestServer(t *testing.T, eng stm.Engine) *Server {
	t.Helper()
	srv, err := New(Config{
		Engine:        eng,
		MemoryWords:   1 << 18,
		KeyspaceHint:  256,
		QueueCapacity: 64,
		PQCapacity:    64,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// feed drives one input chunk through a fresh session and returns the
// reply bytes.
func feed(t *testing.T, srv *Server, in string) string {
	t.Helper()
	var out bytes.Buffer
	s := srv.NewSession(&out)
	if err := s.Feed([]byte(in)); err != nil && err != ErrSessionClosed {
		t.Fatalf("Feed(%q): %v", in, err)
	}
	return out.String()
}

func TestCommandSemantics(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		cases := []struct {
			in, want string
		}{
			{"PING\r\n", "+PONG\r\n"},
			{"ECHO hello\r\n", "$5\r\nhello\r\n"},
			{"GET nope\r\n", "$-1\r\n"},
			{"SET k v1\r\n", "+OK\r\n"},
			{"GET k\r\n", "$2\r\nv1\r\n"},
			{"EXISTS k\r\n", ":1\r\n"},
			{"SET k v2\r\nGET k\r\n", "+OK\r\n$2\r\nv2\r\n"}, // pipelined: one commit
			{"DEL k\r\n", ":1\r\n"},
			{"DEL k\r\n", ":0\r\n"},
			{"EXISTS k\r\n", ":0\r\n"},
			{"INCR n\r\n", ":1\r\n"},
			{"INCRBY n 41\r\n", ":42\r\n"},
			{"DECR n\r\n", ":41\r\n"},
			{"GET n\r\n", "$2\r\n41\r\n"},
			{"SET s abc\r\nINCR s\r\n", "+OK\r\n-" + msgNotInt + "\r\n"},
			{"QPUSH q a\r\n", ":1\r\n"},
			{"QPUSH q b\r\n", ":2\r\n"},
			{"QLEN q\r\n", ":2\r\n"},
			{"QPOP q\r\n", "$1\r\na\r\n"},
			{"QPOP q\r\n", "$1\r\nb\r\n"},
			{"QPOP q\r\n", "$-1\r\n"},
			{"QPOP ghost\r\n", "$-1\r\n"}, // reads never create queues
			{"QLEN ghost\r\n", ":0\r\n"},
			{"ZADD z 5 five\r\n", ":1\r\n"},
			{"ZADD z 1 one\r\n", ":1\r\n"},
			{"ZADD z 3 three\r\n", ":1\r\n"},
			{"ZLEN z\r\n", ":3\r\n"},
			{"ZPOP z\r\n", "*2\r\n:1\r\n$3\r\none\r\n"},
			{"ZPOP z\r\n", "*2\r\n:3\r\n$5\r\nthree\r\n"},
			{"ZPOP z\r\n", "*2\r\n:5\r\n$4\r\nfive\r\n"},
			{"ZPOP z\r\n", "*-1\r\n"},
			{"ZPOP zghost\r\n", "*-1\r\n"},
			// Array framing is equivalent to inline.
			{"*3\r\n$3\r\nSET\r\n$2\r\nak\r\n$2\r\nav\r\n", "+OK\r\n"},
			{"*2\r\n$3\r\nGET\r\n$2\r\nak\r\n", "$2\r\nav\r\n"},
			// Errors that do not poison the stream.
			{"NOSUCH x\r\nPING\r\n", "-" + msgUnknownCmd + "\r\n+PONG\r\n"},
			{"GET\r\nPING\r\n", "-" + msgWrongArgs + "\r\n+PONG\r\n"},
			{"EXEC\r\n", "-" + msgNoMulti + "\r\n"},
			{"DISCARD\r\n", "-" + msgNoMultiDisc + "\r\n"},
		}
		for _, tc := range cases {
			if got := feed(t, srv, tc.in); got != tc.want {
				t.Fatalf("Feed(%q) = %q, want %q", tc.in, got, tc.want)
			}
		}
	})
}

func TestMultiExec(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)

		// A transfer group: all four replies arrive inside *4.
		got := feed(t, srv,
			"SET a 100\r\nSET b 0\r\n"+
				"MULTI\r\nINCRBY a -30\r\nINCRBY b 30\r\nGET a\r\nGET b\r\nEXEC\r\n")
		want := "+OK\r\n+OK\r\n" +
			"+OK\r\n+QUEUED\r\n+QUEUED\r\n+QUEUED\r\n+QUEUED\r\n" +
			"*4\r\n:70\r\n:30\r\n$2\r\n70\r\n$2\r\n30\r\n"
		if got != want {
			t.Fatalf("transfer group = %q, want %q", got, want)
		}

		// A group split across Feeds queues across reads.
		var out bytes.Buffer
		s := srv.NewSession(&out)
		for _, chunk := range []string{"MULTI\r\n", "INCR a\r\n", "INC", "R b\r\n", "EXEC\r\n"} {
			if err := s.Feed([]byte(chunk)); err != nil {
				t.Fatalf("Feed(%q): %v", chunk, err)
			}
		}
		if got := out.String(); got != "+OK\r\n+QUEUED\r\n+QUEUED\r\n*2\r\n:71\r\n:31\r\n" {
			t.Fatalf("split group = %q", got)
		}

		// DISCARD drops the group.
		got = feed(t, srv, "MULTI\r\nINCR a\r\nDISCARD\r\nGET a\r\n")
		if got != "+OK\r\n+QUEUED\r\n+OK\r\n$2\r\n71\r\n" {
			t.Fatalf("discard = %q", got)
		}

		// A malformed queued command aborts EXEC (EXECABORT) and runs
		// nothing.
		got = feed(t, srv, "MULTI\r\nINCR a\r\nNOSUCH\r\nINCR a\r\nEXEC\r\nGET a\r\n")
		want = "+OK\r\n+QUEUED\r\n-" + msgUnknownCmd + "\r\n+QUEUED\r\n-" + msgExecAbort + "\r\n$2\r\n71\r\n"
		if got != want {
			t.Fatalf("execabort = %q, want %q", got, want)
		}

		// Nested MULTI is refused; the outer group survives.
		got = feed(t, srv, "MULTI\r\nMULTI\r\nINCR a\r\nEXEC\r\n")
		want = "+OK\r\n-" + msgNestedMulti + "\r\n+QUEUED\r\n*1\r\n:72\r\n"
		if got != want {
			t.Fatalf("nested = %q, want %q", got, want)
		}

		// BQPOP inside a group degrades to non-blocking.
		got = feed(t, srv, "MULTI\r\nBQPOP mq\r\nEXEC\r\n")
		if got != "+OK\r\n+QUEUED\r\n*1\r\n$-1\r\n" {
			t.Fatalf("multi bqpop = %q", got)
		}
	})
}

// TestFeedTornFrameKeepsPlannedArgs: the complete commands of a chunk are
// planned with arguments that alias the session's read buffer, so a torn
// frame at the chunk's end must not be moved over them before they run.
func TestFeedTornFrameKeepsPlannedArgs(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		var out bytes.Buffer
		s := srv.NewSession(&out)
		for _, chunk := range []string{"SET aaaa 1\r\nGET b", "\r\nGET aaaa\r\n"} {
			if err := s.Feed([]byte(chunk)); err != nil {
				t.Fatalf("Feed(%q): %v", chunk, err)
			}
		}
		if got, want := out.String(), "+OK\r\n$-1\r\n$1\r\n1\r\n"; got != want {
			t.Fatalf("replies = %q, want %q", got, want)
		}
	})
}

func TestQuitAndSessionLifecycle(t *testing.T) {
	srv := newTestServer(t, stm.ST)
	var out bytes.Buffer
	s := srv.NewSession(&out)
	if err := s.Feed([]byte("PING\r\nQUIT\r\nPING\r\n")); err != ErrSessionClosed {
		t.Fatalf("Feed = %v, want ErrSessionClosed", err)
	}
	// The PING after QUIT is dropped, not answered.
	if got := out.String(); got != "+PONG\r\n+OK\r\n" {
		t.Fatalf("quit replies = %q", got)
	}
}

// TestBlockingPop exercises BQPOP over a real connection: the consumer
// blocks until a producer pushes, and a timed BQPOP on a silent queue
// replies nil after its timeout.
func TestBlockingPop(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		addr := serveTCP(t, srv)

		consumer := dial(t, addr)
		defer consumer.Close()
		producer := dial(t, addr)
		defer producer.Close()

		got := make(chan string, 1)
		go func() {
			fmt.Fprintf(consumer, "BQPOP bq\r\n")
			r := bufio.NewReader(consumer)
			got <- readReply(r)
		}()

		// Give the consumer time to park, then push.
		time.Sleep(50 * time.Millisecond)
		fmt.Fprintf(producer, "QPUSH bq payload\r\n")
		select {
		case reply := <-got:
			if reply != "$7\r\npayload\r\n" {
				t.Fatalf("BQPOP reply = %q", reply)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("BQPOP did not wake after QPUSH")
		}

		// Timed BQPOP on a queue nobody fills: nil after the timeout.
		start := time.Now()
		fmt.Fprintf(consumer, "BQPOP silent 100\r\n")
		r := bufio.NewReader(consumer)
		if reply := readReply(r); reply != "$-1\r\n" {
			t.Fatalf("timed BQPOP reply = %q", reply)
		}
		if time.Since(start) < 80*time.Millisecond {
			t.Fatal("timed BQPOP returned before its timeout")
		}
	})
}

// TestServerConcurrentConservation is the race-mode tentpole test: over a
// real TCP listener, writer clients move value between accounts with
// MULTI transfer groups and bump independent counters with pipelined
// INCRs, while reader clients snapshot both accounts in one MULTI and
// assert conservation on every snapshot. Afterward the totals must add
// up exactly. Run with -race to check the session/server plumbing too.
func TestServerConcurrentConservation(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		addr := serveTCP(t, srv)

		const (
			clients = 8
			rounds  = 200
			total   = 10000
		)
		if got := feed(t, srv, fmt.Sprintf("SET acct:a %d\r\nSET acct:b 0\r\n", total)); got != "+OK\r\n+OK\r\n" {
			t.Fatalf("seed: %q", got)
		}

		// Transfer amounts derive from one simrand base seed, logged with
		// replay instructions (STM_SIM_SEED) if the harness fails.
		seed := simrand.SeedForTest(t)
		var wg sync.WaitGroup
		errc := make(chan error, clients+2)

		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := xrand.New(seed ^ (uint64(id)*0x9e3779b97f4a7c15 + 1))
				conn := dial(t, addr)
				defer conn.Close()
				r := bufio.NewReader(conn)
				for i := 0; i < rounds; i++ {
					// One transfer group and one pipelined INCR burst per
					// round, all on one connection.
					amt := rng.Intn(7) + 1
					fmt.Fprintf(conn,
						"MULTI\r\nINCRBY acct:a -%d\r\nINCRBY acct:b %d\r\nEXEC\r\nINCR ops:%d\r\n",
						amt, amt, id)
					for k := 0; k < 4; k++ { // +OK, QUEUED, QUEUED, *2(+2 inner), :n
						if _, err := readReplyErr(r); err != nil {
							errc <- fmt.Errorf("writer %d round %d: %w", id, i, err)
							return
						}
					}
					if _, err := readReplyErr(r); err != nil {
						errc <- fmt.Errorf("writer %d round %d: %w", id, i, err)
						return
					}
				}
			}(c)
		}

		// Two reader clients snapshot both accounts atomically and check
		// conservation while the writers churn.
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := dial(t, addr)
				defer conn.Close()
				r := bufio.NewReader(conn)
				for i := 0; i < rounds; i++ {
					fmt.Fprintf(conn, "MULTI\r\nGET acct:a\r\nGET acct:b\r\nEXEC\r\n")
					for k := 0; k < 3; k++ {
						if _, err := readReplyErr(r); err != nil {
							errc <- err
							return
						}
					}
					arr, err := readReplyErr(r) // *2 + two bulks
					if err != nil {
						errc <- err
						return
					}
					a, b, ok := parseTwoBulkInts(arr)
					if !ok {
						errc <- fmt.Errorf("snapshot reply unparseable: %q", arr)
						return
					}
					if a+b != total {
						errc <- fmt.Errorf("conservation violated: %d + %d != %d", a, b, total)
						return
					}
				}
			}()
		}

		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}

		// Final accounting, read through the server itself.
		reply := feed(t, srv, "MULTI\r\nGET acct:a\r\nGET acct:b\r\nEXEC\r\n")
		i := bytes.Index([]byte(reply), []byte("*2\r\n"))
		if i < 0 {
			t.Fatalf("final snapshot reply: %q", reply)
		}
		a, b, ok := parseTwoBulkInts(reply[i:])
		if !ok || a+b != total {
			t.Fatalf("final conservation: %q (a=%d b=%d)", reply, a, b)
		}
		for c := 0; c < clients; c++ {
			got := feed(t, srv, fmt.Sprintf("GET ops:%d\r\n", c))
			parts := strings.Split(got, "\r\n")
			if len(parts) < 2 {
				t.Fatalf("ops:%d = %q", c, got)
			}
			if n, ok := parseInt64([]byte(parts[1])); !ok || n != rounds {
				t.Fatalf("ops:%d = %q (want %d INCRs)", c, got, rounds)
			}
		}
	})
}

// TestCloseLeavesNoGoroutines: New, Serve, one round trip and Close leave
// no goroutine running this module's code behind, apart from the test's
// own — the server starts no process-lifetime goroutine of its own.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	srv, err := New(Config{MemoryWords: 1 << 12, KeyspaceHint: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conn := dial(t, ln.Addr().String())
	if _, err := conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readReply(bufio.NewReader(conn)); got != "+PONG\r\n" {
		t.Fatalf("PING reply = %q", got)
	}
	conn.Close()
	srv.Close()
	<-served

	// Goroutines unwinding after Close may take a moment to exit.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var prof bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&prof, 2); err != nil {
			t.Fatal(err)
		}
		var stray []string
		for _, g := range strings.Split(prof.String(), "\n\n") {
			if strings.Contains(g, "github.com/stm-go/stm/") && !strings.Contains(g, t.Name()) {
				stray = append(stray, g)
			}
		}
		if len(stray) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close:\n\n%s", len(stray), strings.Join(stray, "\n\n"))
		}
	}
}

// serveTCP starts the server on a loopback listener and returns its
// address.
func serveTCP(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return conn
}

// readReply reads one complete reply (following array nesting) and
// returns its raw bytes.
func readReply(r *bufio.Reader) string {
	s, err := readReplyErr(r)
	if err != nil {
		return "<" + err.Error() + ">"
	}
	return s
}

func readReplyErr(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	switch line[0] {
	case '+', '-', ':':
		return line, nil
	case '$':
		var n int
		fmt.Sscanf(line, "$%d", &n)
		if n < 0 {
			return line, nil
		}
		body := make([]byte, n+2)
		if _, err := ioReadFull(r, body); err != nil {
			return "", err
		}
		return line + string(body), nil
	case '*':
		var n int
		fmt.Sscanf(line, "*%d", &n)
		if n < 0 {
			return line, nil
		}
		out := line
		for i := 0; i < n; i++ {
			inner, err := readReplyErr(r)
			if err != nil {
				return "", err
			}
			out += inner
		}
		return out, nil
	}
	return "", fmt.Errorf("unknown reply type %q", line)
}

func ioReadFull(r *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// parseTwoBulkInts extracts two integers from a "*2\r\n$l\r\na\r\n$l\r\nb\r\n"
// reply.
func parseTwoBulkInts(s string) (a, b int, ok bool) {
	parts := strings.Split(s, "\r\n")
	if len(parts) < 5 || parts[0] != "*2" {
		return 0, 0, false
	}
	a64, ok1 := parseInt64([]byte(parts[2]))
	b64, ok2 := parseInt64([]byte(parts[4]))
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	return int(a64), int(b64), true
}

// TestConnKillDrainsParkedBQPOP pins the reader/feeder split in
// handleConn: a client that dies while its BQPOP is parked must not leak
// the session goroutine until server Close, and the dead waiter must not
// consume an element pushed later.
func TestConnKillDrainsParkedBQPOP(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		addr := serveTCP(t, srv)

		base := runtime.NumGoroutine()
		victim := dial(t, addr)
		fmt.Fprintf(victim, "BQPOP dq\r\n")
		// Let the session park on the empty queue, then kill the client.
		time.Sleep(100 * time.Millisecond)
		victim.Close()

		// The reader notices the dead connection and cancels the session,
		// unparking the BQPOP; everything for that connection drains.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("goroutines did not drain after connection kill: %d > baseline %d", n, base)
		}

		// The dead waiter must not have consumed the push.
		probe := dial(t, addr)
		defer probe.Close()
		r := bufio.NewReader(probe)
		fmt.Fprintf(probe, "QPUSH dq late\r\nQLEN dq\r\n")
		if got := readReply(r); got != ":1\r\n" {
			t.Fatalf("QPUSH reply = %q, want :1", got)
		}
		if got := readReply(r); got != ":1\r\n" {
			t.Fatalf("QLEN after dead-waiter drain = %q, want :1", got)
		}
	})
}

// TestSessionCloseUnparksBlocking pins Session.Close on the in-process
// surface: a concurrent Close wakes a parked BQPOP, which replies nil.
func TestSessionCloseUnparksBlocking(t *testing.T) {
	srv := newTestServer(t, stm.ST)
	var out bytes.Buffer
	s := srv.NewSession(&out)

	fed := make(chan error, 1)
	go func() { fed <- s.Feed([]byte("BQPOP lonely\r\n")) }()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-s.Done():
		t.Fatal("session done before Close")
	default:
	}
	s.Close()
	select {
	case err := <-fed:
		if err != nil {
			t.Fatalf("Feed after Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked BQPOP did not unpark on Session.Close")
	}
	<-s.Done()
	if got := out.String(); got != "$-1\r\n" {
		t.Fatalf("unparked BQPOP reply = %q, want nil bulk", got)
	}
}

func TestPipelinedBatchOwnsOnlyItsWrites(t *testing.T) {
	// A 64-command pipelined batch is one dynamic commit. Overwriting 64
	// present keys reads their probe chains and the map's control words and
	// writes each value's used words; on ST the commit owns the written
	// words and nothing it only read (the words-owned counter's claim,
	// DESIGN.md §12). The length shares word 0 with the first seven bytes,
	// so "first" encodes to 1 used word and "second-value" to 2, and each
	// overwrite also rewrites its slot's state word, which records the
	// value's used width: 3 words a key, where writing every codec word
	// would take valWords (9).
	srv := newTestServer(t, stm.ST)
	var load, batch strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&load, "SET key:%d first\r\n", i)
		fmt.Fprintf(&batch, "SET key:%d second-value\r\n", i)
	}
	feed(t, srv, load.String())
	before := srv.Memory().Stats()
	if out := feed(t, srv, batch.String()); out != strings.Repeat("+OK\r\n", 64) {
		t.Fatalf("batch replies = %q", out)
	}
	after := srv.Memory().Stats()
	commits, owned := after.Commits-before.Commits, after.OwnedWords-before.OwnedWords
	if commits != 1 {
		t.Fatalf("the batch made %d engine commits, want 1", commits)
	}
	if want := uint64(64 * (1 + 2)); owned != want {
		t.Errorf("the batch owned %d words, want %d (64 state words + 64 values of 2 used words)", owned, want)
	}
	for i := 0; i < 64; i += 21 {
		if out := feed(t, srv, fmt.Sprintf("GET key:%d\r\n", i)); out != "$12\r\nsecond-value\r\n" {
			t.Errorf("GET key:%d = %q after the batch", i, out)
		}
	}
}
