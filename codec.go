package stm

import (
	"fmt"
	"math"
)

// Codec[T] maps a Go value onto a fixed number of engine words. It is the
// bridge between the typed Var layer and the paper's static model: because
// Words is a constant per codec, a typed variable always occupies the same
// word range, so each of a Var's own operations is a static transaction
// whose data set is known before it starts.
//
// Encode and Decode are evaluated inside transactions — including by
// helping goroutines — so they must be deterministic, side-effect free,
// total (never panic on any value of T), and must not retain dst/src. An
// Encode/Decode round trip must be the identity for every representable
// value; values a codec cannot represent exactly (e.g. an over-long string
// under String) are canonicalized by Encode, and the canonical form must
// round-trip.
type Codec[T any] interface {
	// Words returns the number of engine words one value occupies. It
	// must be positive and constant for the life of the codec.
	Words() int
	// Encode writes v into every entry of dst, which has exactly Words()
	// entries.
	Encode(v T, dst []uint64)
	// Decode reads a value from src, which has exactly Words() entries.
	Decode(src []uint64) T
}

// Int64 returns the codec storing an int64 in one word (two's complement).
func Int64() Codec[int64] { return int64Codec{} }

// Uint64 returns the codec storing a uint64 in one word.
func Uint64() Codec[uint64] { return uint64Codec{} }

// Float64 returns the codec storing a float64 in one word (IEEE 754 bits).
// Every bit pattern round-trips, including -0, ±Inf, and denormals; NaN
// payloads are preserved bit-exactly, but remember that a NaN stored in a
// transactional word still won't compare equal to itself.
func Float64() Codec[float64] { return float64Codec{} }

// Bool returns the codec storing a bool in one word (0 or 1; Decode treats
// any non-zero word as true).
func Bool() Codec[bool] { return boolCodec{} }

type (
	int64Codec   struct{}
	uint64Codec  struct{}
	float64Codec struct{}
	boolCodec    struct{}
)

func (int64Codec) Words() int                   { return 1 }
func (int64Codec) Encode(v int64, dst []uint64) { dst[0] = uint64(v) }
func (int64Codec) Decode(src []uint64) int64    { return int64(src[0]) }

func (uint64Codec) Words() int                    { return 1 }
func (uint64Codec) Encode(v uint64, dst []uint64) { dst[0] = v }
func (uint64Codec) Decode(src []uint64) uint64    { return src[0] }

func (float64Codec) Words() int                     { return 1 }
func (float64Codec) Encode(v float64, dst []uint64) { dst[0] = math.Float64bits(v) }
func (float64Codec) Decode(src []uint64) float64    { return math.Float64frombits(src[0]) }

func (boolCodec) Words() int { return 1 }
func (boolCodec) Encode(v bool, dst []uint64) {
	dst[0] = 0
	if v {
		dst[0] = 1
	}
}
func (boolCodec) Decode(src []uint64) bool { return src[0] != 0 }

// String returns a codec storing strings of up to max bytes as fixed-width
// words: one length word followed by ceil(max/8) data words, bytes packed
// little-endian. A string longer than max is canonicalized by truncation
// to max bytes (raw bytes, not rune-aware) — Encode must be total because
// it runs inside transactions, where a panic could take a helping
// goroutine down with it. Decode allocates the returned string; typed
// string access is therefore never allocation-free.
func String(max int) Codec[string] {
	if max < 0 {
		panic(fmt.Sprintf("stm: String codec capacity must be non-negative, got %d", max))
	}
	return stringCodec{max: max}
}

type stringCodec struct{ max int }

func (c stringCodec) Words() int { return 1 + (c.max+7)/8 }

func (c stringCodec) Encode(v string, dst []uint64) {
	if len(v) > c.max {
		v = v[:c.max]
	}
	dst[0] = uint64(len(v))
	for w := range dst[1:] {
		var word uint64
		for b := 0; b < 8; b++ {
			if i := w*8 + b; i < len(v) {
				word |= uint64(v[i]) << (8 * b)
			}
		}
		dst[1+w] = word
	}
}

func (c stringCodec) Decode(src []uint64) string {
	n := int(src[0])
	if n < 0 || n > c.max {
		n = c.max // defend against raw writes to the length word
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(src[1+i/8] >> (8 * (i % 8)))
	}
	return string(buf)
}
