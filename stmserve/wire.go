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

// keyWords/valWords are the codec widths. The length sits in the low byte
// of word 0 and the bytes follow it, eight per word, little-endian: word 0
// carries the length and bytes 0..6, words 1..7 bytes 7..62, and word 8
// byte 63 alone (65 bytes in 9 words). They size the map's slots, but a
// short key or value costs only its used words: the map stores an encoding
// without its trailing zero words, so a 7-byte key reads and writes 1
// word and a 15-byte value 2.
const (
	keyWords = (1 + MaxKeyBytes + 7) / 8
	valWords = (1 + MaxValBytes + 7) / 8
)

// wireBytes is the byte capacity encodeWire and decodeWire lay out; a key
// or value array of another size does not compile against them.
const wireBytes = 64

// encodeWire writes the length n (clamped to wireBytes) and the bytes of b
// into dst[:9] in the layout above, loading eight bytes at a time.
func encodeWire(n byte, b *[wireBytes]byte, dst []uint64) {
	if n > wireBytes {
		n = wireBytes
	}
	_ = dst[8]
	dst[0] = uint64(n) | binary.LittleEndian.Uint64(b[0:])<<8
	for w := 1; w < 8; w++ {
		dst[w] = binary.LittleEndian.Uint64(b[8*w-1:])
	}
	dst[8] = uint64(b[63])
}

// decodeWire is encodeWire's inverse: it fills b from src[:9] and returns
// the length, clamped to wireBytes (a raw write to word 0 can hold any
// byte there).
func decodeWire(src []uint64, b *[wireBytes]byte) byte {
	_ = src[8]
	binary.LittleEndian.PutUint64(b[0:], src[0]>>8)
	for w := 1; w < 8; w++ {
		binary.LittleEndian.PutUint64(b[8*w-1:], src[w])
	}
	b[63] = byte(src[8])
	return min(byte(src[0]), wireBytes)
}

// keyCodec and valCodec satisfy stm.Codec. Encode is total (the length is
// clamped, though ingress validation makes an over-long value impossible)
// and Decode is allocation-free — the decoded struct returns by value.
type keyCodec struct{}

func (keyCodec) Words() int { return keyWords }

func (keyCodec) Encode(v wireKey, dst []uint64) { encodeWire(v.n, &v.b, dst) }

func (keyCodec) Decode(src []uint64) (v wireKey) {
	v.n = decodeWire(src, &v.b)
	return v
}

type valCodec struct{}

func (valCodec) Words() int { return valWords }

func (valCodec) Encode(v wireVal, dst []uint64) { encodeWire(v.n, &v.b, dst) }

func (valCodec) Decode(src []uint64) (v wireVal) {
	v.n = decodeWire(src, &v.b)
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
