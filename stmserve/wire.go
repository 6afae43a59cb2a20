package stmserve

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Wire value types. The server's keyspace is an stmds.Map[wireKey, wireVal]
// and its queues carry wireVal elements; both types are fixed-size
// array-backed structs rather than Go strings so that every hop of the
// steady-state command path — codec Encode, codec Decode, map probe, reply
// staging — moves plain values and never touches the heap. (stm.String's
// Decode allocates by contract; a server answering millions of GETs cannot
// afford that.) The length byte plus zeroed tail keeps struct equality,
// encoded-word equality, and byte-string equality the same relation, which
// is what stmds.Map's probe requires of a comparable key.

const (
	// MaxKeyBytes is the longest key (and queue name) the server accepts.
	MaxKeyBytes = 64
	// MaxValBytes is the longest value the server accepts.
	MaxValBytes = 64
)

type wireKey struct {
	n byte
	b [MaxKeyBytes]byte
}

type wireVal struct {
	n byte
	b [MaxValBytes]byte
}

// keyFromBytes builds a key from raw argument bytes; ok is false when the
// argument is too long (the server rejects, never truncates — a truncated
// key would silently alias another).
func keyFromBytes(p []byte) (k wireKey, ok bool) {
	if len(p) > MaxKeyBytes {
		return k, false
	}
	k.n = byte(copy(k.b[:], p))
	return k, true
}

// valFromBytes is keyFromBytes for values.
func valFromBytes(p []byte) (v wireVal, ok bool) {
	if len(p) > MaxValBytes {
		return v, false
	}
	v.n = byte(copy(v.b[:], p))
	return v, true
}

// valFromInt formats n as its decimal wireVal — the INCR family's store
// form. A 20-byte decimal always fits MaxValBytes.
func valFromInt(n int64) (v wireVal) {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], n, 10)
	v.n = byte(copy(v.b[:], s))
	return v
}

func (v *wireVal) bytes() []byte { return v.b[:v.n] }

// keyWords/valWords are the codec widths: one length word plus the byte
// array packed eight bytes per word, little-endian. They size the map's
// slots, but a short key or value costs only its used words: the map
// stores an encoding without its trailing zero words, so a 7-byte key
// reads and writes 2 words, not keyWords.
const (
	keyWords = 1 + MaxKeyBytes/8
	valWords = 1 + MaxValBytes/8
)

// keyCodec and valCodec satisfy stm.Codec. Encode is total (the length is
// clamped, though ingress validation makes an over-long value impossible)
// and Decode is allocation-free — the decoded struct returns by value.
type keyCodec struct{}

func (keyCodec) Words() int { return keyWords }

func (keyCodec) Encode(v wireKey, dst []uint64) {
	if v.n > MaxKeyBytes {
		v.n = MaxKeyBytes
	}
	dst[0] = uint64(v.n)
	for w := 0; w < MaxKeyBytes/8; w++ {
		dst[1+w] = binary.LittleEndian.Uint64(v.b[8*w:])
	}
}

func (keyCodec) Decode(src []uint64) (v wireKey) {
	n := src[0]
	if n > MaxKeyBytes {
		n = MaxKeyBytes // defend against raw writes to the length word
	}
	v.n = byte(n)
	for w := 0; w < MaxKeyBytes/8; w++ {
		binary.LittleEndian.PutUint64(v.b[8*w:], src[1+w])
	}
	return v
}

type valCodec struct{}

func (valCodec) Words() int { return valWords }

func (valCodec) Encode(v wireVal, dst []uint64) {
	if v.n > MaxValBytes {
		v.n = MaxValBytes
	}
	dst[0] = uint64(v.n)
	for w := 0; w < MaxValBytes/8; w++ {
		dst[1+w] = binary.LittleEndian.Uint64(v.b[8*w:])
	}
}

func (valCodec) Decode(src []uint64) (v wireVal) {
	n := src[0]
	if n > MaxValBytes {
		n = MaxValBytes
	}
	v.n = byte(n)
	for w := 0; w < MaxValBytes/8; w++ {
		binary.LittleEndian.PutUint64(v.b[8*w:], src[1+w])
	}
	return v
}

// parseInt64 parses a decimal integer (optional sign) without allocating;
// ok is false on empty input, junk, or overflow. The INCR family treats a
// stored value it cannot parse as a type error, so "false" must be
// reliable, not saturating.
func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if len(b) == 1 {
			return 0, false
		}
	}
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		if n == 1<<63 {
			return math.MinInt64, true
		}
		return -int64(n), true
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}

// parseUint64 is parseInt64 for unsigned arguments (priorities, timeouts).
func parseUint64(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(d))/10 {
			return 0, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}
