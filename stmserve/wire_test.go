package stmserve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
)

// encKey and encVal return a key's and a value's codec words.
func encKey(k wireKey) (w [keyWords]uint64) {
	keyCodec{}.Encode(k, w[:])
	return w
}

func encVal(v wireVal) (w [valWords]uint64) {
	valCodec{}.Encode(v, w[:])
	return w
}

// usedWireWords is the map's used width of an encoding: its length without
// trailing zero words.
func usedWireWords(enc []uint64) int {
	n := len(enc)
	for n > 0 && enc[n-1] == 0 {
		n--
	}
	return n
}

func TestWireCodecLayout(t *testing.T) {
	if keyWords != 9 || valWords != 9 {
		t.Fatalf("codec widths %d/%d, want 9/9 (65 bytes)", keyWords, valWords)
	}
	for n := 0; n <= MaxKeyBytes; n++ {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte('a' + i%26)
		}
		k, ok := keyFromBytes(p)
		if !ok {
			t.Fatalf("keyFromBytes rejected %d bytes", n)
		}
		v, ok := valFromBytes(p)
		if !ok {
			t.Fatalf("valFromBytes rejected %d bytes", n)
		}
		ke, ve := encKey(k), encVal(v)
		if ke != ve {
			t.Fatalf("%d bytes: key and value encodings differ", n)
		}
		if got := (keyCodec{}).Decode(ke[:]); got != k {
			t.Errorf("%d-byte key did not round-trip: %q", n, got.b[:got.n])
		}
		if got := (valCodec{}).Decode(ve[:]); got != v || !bytes.Equal(got.bytes(), p) {
			t.Errorf("%d-byte value did not round-trip: %q", n, got.bytes())
		}
		// The length byte and the bytes share words: n bytes use
		// ceil((1+n)/8) words, and the empty string none.
		want := (1 + n + 7) / 8
		if n == 0 {
			want = 0
		}
		if got := usedWireWords(ke[:]); got != want {
			t.Errorf("%d bytes use %d words, want %d", n, got, want)
		}
		if byte(ke[0]) != byte(n) {
			t.Errorf("%d bytes: word 0's low byte is %d", n, byte(ke[0]))
		}
	}
	if k, ok := keyFromBytes(make([]byte, MaxKeyBytes+1)); ok {
		t.Errorf("keyFromBytes accepted %d bytes: %d", MaxKeyBytes+1, k.n)
	}
}

func TestWireCodecEquality(t *testing.T) {
	// Struct equality, encoded-word equality and byte-string equality are
	// one relation, trailing NULs inside the length included.
	strs := []string{"", "\x00", "a", "a\x00", "a\x00\x00", "\x00a", "abcdefg", "abcdefg\x00",
		"abcdefgh", strings.Repeat("x", 63), strings.Repeat("x", 63) + "\x00", strings.Repeat("x", 64)}
	for _, a := range strs {
		for _, b := range strs {
			ka, _ := keyFromBytes([]byte(a))
			kb, _ := keyFromBytes([]byte(b))
			va, _ := valFromBytes([]byte(a))
			vb, _ := valFromBytes([]byte(b))
			same := a == b
			if (ka == kb) != same || (encKey(ka) == encKey(kb)) != same {
				t.Errorf("keys %q, %q: struct equal %v, words equal %v, want %v", a, b, ka == kb, encKey(ka) == encKey(kb), same)
			}
			if (va == vb) != same || (encVal(va) == encVal(vb)) != same {
				t.Errorf("values %q, %q: struct equal %v, words equal %v, want %v", a, b, va == vb, encVal(va) == encVal(vb), same)
			}
		}
	}
}

func TestWireCodecClampsRawLength(t *testing.T) {
	// A raw write can leave any byte in word 0's length; decoding clamps
	// it to the array, and the bytes still come from their words.
	for _, raw := range []uint64{65, 0x80, 0xff} {
		v, _ := valFromBytes([]byte(strings.Repeat("z", MaxValBytes)))
		w := encVal(v)
		w[0] = w[0]&^0xff | raw
		if got := (valCodec{}).Decode(w[:]); got.n != MaxValBytes || got != v {
			t.Errorf("raw length %d decoded to a %d-byte value", raw, got.n)
		}
		if got := (keyCodec{}).Decode(w[:]); got.n != MaxKeyBytes {
			t.Errorf("raw length %d decoded to a %d-byte key", raw, got.n)
		}
	}
	// Encode clamps too: a struct can only carry a longer length by a
	// bug, and the encoding must still decode within bounds.
	w := encVal(wireVal{n: 200})
	if got := (valCodec{}).Decode(w[:]); got.n != MaxValBytes {
		t.Errorf("length 200 encoded and decoded to %d", got.n)
	}
}

// FuzzWireCodec checks the codec relations on arbitrary byte strings and
// arbitrary raw words: round trip, equality agreement, and a decoded
// length never past the array.
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte("a"), []byte("a\x00"), uint64(0x1ff))
	f.Add([]byte("k000123"), []byte("k000123"), uint64(65))
	f.Add([]byte(strings.Repeat("x", 64)), []byte(""), uint64(0))
	f.Fuzz(func(t *testing.T, a, b []byte, raw uint64) {
		a, b = a[:min(len(a), MaxKeyBytes)], b[:min(len(b), MaxKeyBytes)]
		ka, _ := keyFromBytes(a)
		kb, _ := keyFromBytes(b)
		va, _ := valFromBytes(a)
		ea, eb := encKey(ka), encKey(kb)
		same := bytes.Equal(a, b)
		if (ka == kb) != same || (ea == eb) != same {
			t.Fatalf("%q vs %q: struct equal %v, words equal %v", a, b, ka == kb, ea == eb)
		}
		if got := (keyCodec{}).Decode(ea[:]); got != ka {
			t.Fatalf("key %q did not round-trip", a)
		}
		ve := encVal(va)
		if got := (valCodec{}).Decode(ve[:]); !bytes.Equal(got.bytes(), a) {
			t.Fatalf("value %q did not round-trip", a)
		}
		ea[0] = raw
		if got := (keyCodec{}).Decode(ea[:]); got.n > MaxKeyBytes {
			t.Fatalf("raw word 0 %#x decoded to length %d", raw, got.n)
		}
	})
}

func TestGetHitFootprintUnderServerCodecs(t *testing.T) {
	// A GET hit reads the table geometry (3 words), the slot's state word
	// and the used key and value words. The length shares word 0 with the
	// first seven bytes, so a 7-byte key is 1 word, a 4-digit balance 1
	// and a 14-byte value 2.
	cases := []struct {
		key, val string
		want     int
	}{
		{"k000123", "value-14-bytes", 3 + 1 + 1 + 2},
		{"k000001", "1000", 3 + 1 + 1 + 1},
		{"key-eight", strings.Repeat("v", 64), 3 + 1 + 2 + 9},
	}
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv := newTestServer(t, eng)
		for _, c := range cases {
			if out := feed(t, srv, fmt.Sprintf("SET %s %s\r\n", c.key, c.val)); out != "+OK\r\n" {
				t.Fatalf("SET %s = %q", c.key, out)
			}
			k, _ := keyFromBytes([]byte(c.key))
			var footprint int
			if err := srv.Memory().Atomically(func(tx *stm.DTx) error {
				if v, ok := srv.kv.GetTx(tx, k); !ok || string(v.bytes()) != c.val {
					t.Errorf("GetTx(%q) = (%q, %v)", c.key, v.bytes(), ok)
				}
				footprint = tx.Footprint()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if footprint != c.want {
				t.Errorf("GET %s (%d-byte value) touched %d words, want %d", c.key, len(c.val), footprint, c.want)
			}
		}
	})
}
