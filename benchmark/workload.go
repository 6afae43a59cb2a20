package main

import (
	"math/rand/v2"
	"strconv"
)

// A workload is one set of inputs. Every random choice comes from the
// -seed; the program under test receives only the bytes (or, for lib-map,
// the Map calls) generated here — never the workload name or the seed.
type workload struct {
	name string
	why  string
	// tcp selects the serving path (stmserve over loopback); false drives
	// an stmds.Map in process.
	tcp bool
	// keys is how many keys are populated before the first request.
	keys int
	// depth is ops per request: commands per write on the KV workloads,
	// MULTI groups per write on kv-transfer.
	depth int
	// transfer selects the account-transfer op mix (kv-transfer); false is
	// the 90 % GET / 10 % SET mix.
	transfer bool
	// opUnit names what one op is, for the printed glossary.
	opUnit string
}

const (
	kvKeys         = 4096 // fits the server's default 4096-entry table with no resize
	accounts       = 16
	initialBalance = 1000
	conservedSum   = accounts * initialBalance
)

var workloads = []workload{
	{
		name: "kv-rtt", tcp: true, keys: kvKeys, depth: 1, opUnit: "command",
		why: "depth-1 GET/SET round trips: the tcp and stmserve hand-off layers own most of the time, so serving-path changes show here and engine changes should not",
	},
	{
		name: "kv-pipeline", tcp: true, keys: kvKeys, depth: 64, opUnit: "command",
		why: "64 distinct-key commands per write, one DTx commit per batch: stm/stmds/core do nearly all the work and the round trip is amortised 64x",
	},
	{
		name: "kv-transfer", tcp: true, keys: accounts, depth: 8, transfer: true, opUnit: "MULTI group",
		why: "MULTI/EXEC transfers and whole-bank snapshots over 16 accounts: the same layers as kv-pipeline under write contention, checked for opacity from the client",
	},
	{
		name: "lib-map", tcp: false, keys: kvKeys, depth: 1, opUnit: "Map call",
		why: "stmds.Map Get/Put with no server and no sockets: what a library user sees, where engine changes show at full size and ST scales backwards",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type opKind uint8

const (
	opGet      opKind = iota // read key a; the value must carry a's index
	opSet                    // write "<a>:<nonce>" under key a
	opTransfer               // MULTI / INCRBY a -1 / INCRBY b 1 / EXEC
	opSnapshot               // MULTI / GET every account / EXEC; must sum to conservedSum
)

// op is one generated operation, before it is rendered as wire bytes or a
// Map call.
type op struct {
	kind  opKind
	a, b  int32
	nonce uint32
}

// generator is one connection's deterministic op stream: the same
// (workload, seed, conn) always yields the same requests.
type generator struct {
	w   *workload
	rng *rand.Rand
	ops []op // the current request, reused
}

func newGenerator(w *workload, seed uint64, conn int) *generator {
	return &generator{
		w:   w,
		rng: rand.New(rand.NewPCG(seed*1000+uint64(conn), 0x5354_4d62_656e_6368)),
		ops: make([]op, w.depth),
	}
}

// next generates the next request. The returned slice is valid until the
// following call.
func (g *generator) next() []op {
	for i := range g.ops {
		o := &g.ops[i]
		if g.w.transfer {
			if g.rng.IntN(5) == 0 {
				*o = op{kind: opSnapshot}
				continue
			}
			a := g.rng.IntN(accounts)
			b := g.rng.IntN(accounts - 1)
			if b >= a {
				b++
			}
			*o = op{kind: opTransfer, a: int32(a), b: int32(b)}
			continue
		}
		kind := opGet
		if g.rng.IntN(10) == 0 {
			kind = opSet
		}
		*o = op{kind: kind, a: int32(g.rng.IntN(g.w.keys)), nonce: g.rng.Uint32()}
	}
	return g.ops
}

// appendKey renders key index i as k%06d without allocating.
func appendKey(dst []byte, i int32) []byte {
	var d [6]byte
	for p := 5; p >= 0; p-- {
		d[p] = byte('0' + i%10)
		i /= 10
	}
	dst = append(dst, 'k')
	return append(dst, d[:]...)
}

// appendValue renders the value stored under key index i: "<i>:<nonce>",
// so a reply that belongs to another key is detectable.
func appendValue(dst []byte, i int32, nonce uint32) []byte {
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, ':')
	return strconv.AppendUint(dst, uint64(nonce), 10)
}

// valueIndex parses the key index out of a stored value.
func valueIndex(v []byte) (int32, bool) {
	var n int32
	for i, c := range v {
		if c == ':' {
			return n, i > 0
		}
		if c < '0' || c > '9' || n > 1<<24 {
			return 0, false
		}
		n = n*10 + int32(c-'0')
	}
	return 0, false
}

// appendRequest renders one request in the server's inline framing.
func appendRequest(dst []byte, ops []op) []byte {
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opGet:
			dst = append(dst, "GET "...)
			dst = appendKey(dst, o.a)
			dst = append(dst, "\r\n"...)
		case opSet:
			dst = append(dst, "SET "...)
			dst = appendKey(dst, o.a)
			dst = append(dst, ' ')
			dst = appendValue(dst, o.a, o.nonce)
			dst = append(dst, "\r\n"...)
		case opTransfer:
			dst = append(dst, "MULTI\r\nINCRBY "...)
			dst = appendKey(dst, o.a)
			dst = append(dst, " -1\r\nINCRBY "...)
			dst = appendKey(dst, o.b)
			dst = append(dst, " 1\r\nEXEC\r\n"...)
		case opSnapshot:
			dst = append(dst, "MULTI\r\n"...)
			for a := int32(0); a < accounts; a++ {
				dst = append(dst, "GET "...)
				dst = appendKey(dst, a)
				dst = append(dst, "\r\n"...)
			}
			dst = append(dst, "EXEC\r\n"...)
		}
	}
	return dst
}

// appendPopulate renders the SET that gives key index i its initial value.
func appendPopulate(dst []byte, w *workload, i int32) []byte {
	dst = append(dst, "SET "...)
	dst = appendKey(dst, i)
	dst = append(dst, ' ')
	if w.transfer {
		dst = strconv.AppendInt(dst, initialBalance, 10)
	} else {
		dst = appendValue(dst, i, 0)
	}
	return append(dst, "\r\n"...)
}
