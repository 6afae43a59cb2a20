package stmserve

// Parser hardening: a fuzz target over the frame parser's byte-prefix
// contract, and a malformed-input table asserting that hostile streams
// produce one clean error reply and a closed session without poisoning
// the shared Memory.

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseCommand drives parseFrame with arbitrary byte streams — torn
// frames, oversized headers, pipelined garbage — and checks its contract:
// never panic, never consume more than the buffer, always make progress
// on success, and classify every outcome as exactly one of
// success/incomplete/protocol error. It then feeds the same bytes to two
// fresh servers — whole, and split at an arbitrary point — and requires
// byte-identical replies: re-chunking (the torn-frame path) may change
// timing, never what a client is told.
//
// Fuzz it under a memory limit — GOMEMLIMIT=256MiB go test -run XXX -fuzz
// FuzzParseCommand ./stmserve — because every run builds two servers, and
// without a limit a fuzz worker's heap reaches gigabytes within seconds.
func FuzzParseCommand(f *testing.F) {
	f.Add([]byte("PING\r\n"), 3)
	f.Add([]byte("SET k v\r\nGET k\r\n"), 5)
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"), 9)
	f.Add([]byte("*1000000\r\n"), 1)
	f.Add([]byte("$5\r\nhello\r\n"), 2)
	f.Add([]byte("*2\r\n$99999\r\nx\r\n"), 4)
	f.Add([]byte("MULTI\r\nINCR a\r\nEXEC\r\n"), 7)
	f.Add([]byte(strings.Repeat("x", maxFrameBytes+1)), 0)
	f.Add([]byte("*3\r\n$3\r\nSET\r\n"), 6) // torn array frame
	// A torn frame behind a planned command whose args alias the read buffer.
	f.Add([]byte("SET aaaa 1\r\nGET b\r\nGET aaaa\r\n"), 17)

	f.Fuzz(func(t *testing.T, data []byte, split int) {
		var args [maxArgs][]byte
		pos := 0
		for pos < len(data) {
			nargs, n, err := parseFrame(data[pos:], &args)
			if err != nil {
				if err == errIncomplete {
					// A torn frame must become parseable or erroneous with
					// more bytes; with no more bytes, we simply stop.
					break
				}
				break // protocol error: the session would close here
			}
			if n <= 0 {
				t.Fatalf("parseFrame consumed %d on success", n)
			}
			if pos+n > len(data) {
				t.Fatalf("parseFrame consumed past the buffer: %d+%d > %d", pos, n, len(data))
			}
			for i := 0; i < nargs; i++ {
				_ = args[i] // staged args must be within bounds (indexing panics otherwise)
			}
			pos += n
		}

		if split < 0 {
			split = -split
		}
		if len(data) > 0 {
			split %= len(data)
		} else {
			split = 0
		}
		var whole, chunked bytes.Buffer
		errWhole := fuzzServer(t).NewSession(&whole).Feed(data)
		errChunked := srv2Replay(fuzzServer(t), &chunked, data, split)
		if errWhole != errChunked {
			t.Fatalf("split at %d: session error %v, whole stream %v", split, errChunked, errWhole)
		}
		// Replies also depend on capacity: when the map grows (after a batch)
		// and what the allocator has left, which batch boundaries move. Below
		// maxFuzzCommands keyspace writes and created structures no limit
		// binds, so only framing could make the two runs differ.
		if bytes.Count(data, []byte("\n")) <= maxFuzzCommands && !bytes.Equal(whole.Bytes(), chunked.Bytes()) {
			t.Fatalf("split at %d: replies %q, whole stream %q", split, chunked.Bytes(), whole.Bytes())
		}
	})
}

// maxFuzzCommands bounds the commands (each ends at a newline) an input may
// hold for FuzzParseCommand to compare replies: fewer than fill the
// fuzzServer keyspace to its growth trigger or exhaust its words.
const maxFuzzCommands = 64

// fuzzServer returns a fresh server for one fuzz run. Its context is
// cancelled up front: the fuzzer synthesizes BQPOP, which must reply nil
// rather than park the fuzz worker on an empty queue forever.
func fuzzServer(t *testing.T) *Server {
	srv, err := New(Config{MemoryWords: 1 << 14, KeyspaceHint: 64, QueueCapacity: 8, PQCapacity: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.cancel()
	return srv
}

// srv2Replay feeds data to a fresh session in two chunks; it returns the
// session's final error (nil, closed, or write failure).
func srv2Replay(srv *Server, w *bytes.Buffer, data []byte, split int) error {
	s := srv.NewSession(w)
	if err := s.Feed(data[:split]); err != nil {
		return err
	}
	return s.Feed(data[split:])
}

// TestMalformedInputs drives hostile frames through a live session and
// asserts each produces a clean "-ERR protocol error" reply followed by
// session close — and that none of them left anything behind in the
// shared Memory (the keyspace stays empty, no queue is registered).
func TestMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"array count overflow", "*99999999\r\n"},
		{"array count junk", "*x2\r\n"},
		{"array too many args", "*9\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n$1\r\nd\r\n$1\r\ne\r\n$1\r\nf\r\n$1\r\ng\r\n$1\r\nh\r\n$1\r\ni\r\n"},
		{"bulk without dollar", "*1\r\nPING\r\n"},
		{"bulk length junk", "*1\r\n$abc\r\n"},
		{"bulk length oversized", "*1\r\n$99999\r\n"},
		{"bulk missing trailing crlf", "*1\r\n$4\r\nPINGxx"},
		{"bulk bad terminator", "*1\r\n$4\r\nPINGZZ\r\n"},
		{"inline frame too long", strings.Repeat("A", maxFrameBytes) + "\r\n"},
		{"inline too many args", "SET a b c d e f\r\n"},
		{"bare lf accepted then garbage", "PING\n*zz\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{MemoryWords: 1 << 14, KeyspaceHint: 64})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer srv.Close()
			var out bytes.Buffer
			s := srv.NewSession(&out)
			err = s.Feed([]byte(tc.in))
			if err != ErrSessionClosed {
				t.Fatalf("Feed(%q) = %v, want ErrSessionClosed", tc.in, err)
			}
			if !bytes.Contains(out.Bytes(), []byte("-protocol error")) {
				t.Fatalf("Feed(%q) replied %q, want a -protocol error reply", tc.in, out.Bytes())
			}
			// A closed session stays closed.
			if err := s.Feed([]byte("PING\r\n")); err != ErrSessionClosed {
				t.Fatalf("Feed after close = %v, want ErrSessionClosed", err)
			}
			// The hostile stream must not have poisoned shared state.
			if n := srv.kv.Len(); n != 0 {
				t.Fatalf("keyspace has %d entries after malformed input", n)
			}
			srv.regMu.RLock()
			nq, npq := len(srv.queues), len(srv.pqs)
			srv.regMu.RUnlock()
			if nq != 0 || npq != 0 {
				t.Fatalf("registries have %d queues, %d pqs after malformed input", nq, npq)
			}
		})
	}
}

// TestMalformedAfterValid checks that commands pipelined ahead of the
// poison pill still execute and reply before the error closes the stream.
func TestMalformedAfterValid(t *testing.T) {
	srv, err := New(Config{MemoryWords: 1 << 14, KeyspaceHint: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	var out bytes.Buffer
	s := srv.NewSession(&out)
	if err := s.Feed([]byte("SET k v\r\n*bad\r\n")); err != ErrSessionClosed {
		t.Fatalf("Feed = %v, want ErrSessionClosed", err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "+OK\r\n") {
		t.Fatalf("valid prefix command did not reply first: %q", got)
	}
	if !strings.Contains(got, "-protocol error") {
		t.Fatalf("no protocol error reply: %q", got)
	}
	// The SET ahead of the poison did commit.
	k, _ := keyFromBytes([]byte("k"))
	if v, ok := srv.kv.Get(k); !ok || string(v.bytes()) != "v" {
		t.Fatalf("SET before poison lost: %v %q", ok, v.bytes())
	}
}
