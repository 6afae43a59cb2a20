package main

import (
	"bytes"
	"regexp"
	"testing"
)

// stream renders the first n requests of one connection.
func stream(w *workload, seed uint64, conn, n int) []byte {
	g := newGenerator(w, seed, conn)
	var out []byte
	for i := 0; i < n; i++ {
		out = appendRequest(out, g.next())
	}
	return out
}

// TestSameSeedSameBytes: the same seed gives every connection a
// byte-identical request stream; another seed, or another connection,
// gives a different one.
func TestSameSeedSameBytes(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for conn := 0; conn < 3; conn++ {
			a, b := stream(w, 42, conn, 300), stream(w, 42, conn, 300)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: seed 42 produced two different streams", w.name, conn)
			}
			if bytes.Equal(a, stream(w, 43, conn, 300)) {
				t.Errorf("%s conn %d: seeds 42 and 43 produced the same stream", w.name, conn)
			}
			if bytes.Equal(a, stream(w, 42, conn+1, 300)) {
				t.Errorf("%s: connections %d and %d share a stream", w.name, conn, conn+1)
			}
		}
	}
}

// commandRE is everything the program under test is ever sent: verbs,
// keys, and values made of a key index and a nonce.
var commandRE = regexp.MustCompile(`^(GET k\d{6}|SET k\d{6} \d+(:\d+)?|INCRBY k\d{6} -?1|MULTI|EXEC)$`)

// TestOnlyGeneratedBytesReachTheServer: neither the workload's name nor
// the seed is in what the server receives — populate and requests alike —
// so the program cannot tell which workload it is serving except by the
// traffic itself.
func TestOnlyGeneratedBytesReachTheServer(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		sent := stream(w, 123456789, 0, 200)
		for k := int32(0); k < int32(w.keys); k++ {
			sent = appendPopulate(sent, w, k)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(sent, []byte("\r\n")), []byte("\r\n")) {
			if !commandRE.Match(line) {
				t.Fatalf("%s sends %q, which is not a generated command", w.name, line)
			}
		}
	}
}

// TestOpMix pins the generated mix to what the glossary says.
func TestOpMix(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		g := newGenerator(w, 1, 0)
		count := map[opKind]int{}
		total := 0
		for r := 0; r < 20000/w.depth; r++ {
			for _, o := range g.next() {
				count[o.kind]++
				total++
				if int(o.a) >= w.keys || (o.kind == opTransfer && (o.a == o.b || int(o.b) >= w.keys)) {
					t.Fatalf("%s: op %+v out of range", w.name, o)
				}
			}
		}
		writes, reads := count[opSet], count[opGet]
		lo, hi := 0.08, 0.12
		if w.transfer {
			writes, reads = count[opTransfer], count[opSnapshot]
			lo, hi = 0.77, 0.83
		}
		if share := float64(writes) / float64(total); writes+reads != total || share < lo || share > hi {
			t.Errorf("%s: %d writes of %d ops (%.3f), want a share in [%.2f, %.2f]", w.name, writes, total, share, lo, hi)
		}
	}
}
