package stmds_test

// Used-width slot layout: a full slot's state word records how many of the
// key's and the value's codec words are used (the encoding without its
// trailing zero words), and the map reads and writes only those. These
// tests pin the saving as a count of words and check that the words past a
// used width — which a slot keeps from whatever lived there before — never
// show in a decoded key or value.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
)

// usedStringWords is the used width of s under a String codec wide enough
// to hold it: the length word plus the data words, none if s is empty.
func usedStringWords(s string) int {
	if s == "" {
		return 0
	}
	return 1 + (len(s)+7)/8
}

// writeSetOf runs fn as one transaction and returns how many words its
// commit wrote, as the engine's post-lock injection point reports it.
func writeSetOf(t *testing.T, m *stm.Memory, fn func(tx *stm.DTx) error) int {
	t.Helper()
	writes := -1
	m.SetChaos(func(e stm.ChaosEvent) {
		if e.Point == stm.ChaosSTPostLock || e.Point == stm.ChaosTL2PostLock {
			writes = len(e.Addrs)
		}
	})
	defer m.SetChaos(nil)
	if err := m.Atomically(fn); err != nil {
		t.Fatal(err)
	}
	return writes
}

func TestMapFootprintIsUsedWords(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		m := mustMemEngine(t, 1<<12, eng)
		mp, err := stmds.NewMap[string, string](m, stm.String(64), stm.String(64), 1)
		if err != nil {
			t.Fatal(err)
		}
		const key, val = "key:042", "a-value-of-24-bytes-long"
		if _, _, err := mp.Put(key, val); err != nil {
			t.Fatal(err)
		}

		// A hit reads the active table's base and capacity and the old
		// table's capacity, the slot's state word, and the used key and
		// value words: 3 + 1 + 2 + 4 = 10, where reading every codec word
		// would take 3 + 1 + 9 + 9 = 22.
		var footprint int
		if err := m.Atomically(func(tx *stm.DTx) error {
			if got, ok := mp.GetTx(tx, key); !ok || got != val {
				t.Errorf("GetTx(%q) = (%q, %v)", key, got, ok)
			}
			footprint = tx.Footprint()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := 3 + 1 + usedStringWords(key) + usedStringWords(val); footprint != want {
			t.Errorf("GetTx hit touched %d words, want %d", footprint, want)
		}

		// Overwriting with a value of the same used width writes its used
		// words and no state word; a value of another width also rewrites
		// the state word.
		same := "b-value-of-24-bytes-long"
		if n := writeSetOf(t, m, func(tx *stm.DTx) error {
			_, _, err := mp.PutTx(tx, key, same)
			return err
		}); n != usedStringWords(same) {
			t.Errorf("same-width PutTx wrote %d words, want %d (the value's used words only)", n, usedStringWords(same))
		}
		short := "short"
		if n := writeSetOf(t, m, func(tx *stm.DTx) error {
			_, _, err := mp.PutTx(tx, key, short)
			return err
		}); n != 1+usedStringWords(short) {
			t.Errorf("width-changing PutTx wrote %d words, want %d (state word + used value words)", n, 1+usedStringWords(short))
		}
		if got, ok := mp.Get(key); !ok || got != short {
			t.Errorf("Get(%q) = (%q, %v), want %q", key, got, ok, short)
		}
	})
}

// quad is a four-word key and value type whose Decode depends on every
// word, so a stale word past a used width would show in what it decodes
// (a String decode stops at its length word and would hide one).
type quad [4]uint64

type quadCodec struct{}

func (quadCodec) Words() int                  { return 4 }
func (quadCodec) Encode(v quad, dst []uint64) { copy(dst, v[:]) }
func (quadCodec) Decode(src []uint64) (v quad) {
	copy(v[:], src)
	return v
}

// quadModel drives a Map[quad, quad] beside a Go map and checks after each
// step that every key ever used decodes to the model's value through Get,
// and that RangeTx yields exactly the model.
type quadModel struct {
	t     *testing.T
	m     *stm.Memory
	mp    *stmds.Map[quad, quad]
	model map[quad]quad
	keys  []quad // every key used, in first-use order
}

func newQuadModel(t *testing.T, eng stm.Engine, hint int) *quadModel {
	t.Helper()
	m := mustMemEngine(t, 1<<16, eng)
	mp, err := stmds.NewMap[quad, quad](m, quadCodec{}, quadCodec{}, hint)
	if err != nil {
		t.Fatal(err)
	}
	return &quadModel{t: t, m: m, mp: mp, model: map[quad]quad{}}
}

func (q *quadModel) use(k quad) {
	if !slices.Contains(q.keys, k) {
		q.keys = append(q.keys, k)
	}
}

func (q *quadModel) put(k, v quad) {
	q.t.Helper()
	q.use(k)
	prev, replaced, err := q.mp.Put(k, v)
	q.checkPrev("Put", k, prev, replaced, err)
	q.model[k] = v
	q.check()
}

func (q *quadModel) putTx(k, v quad) error {
	q.t.Helper()
	q.use(k)
	var prev quad
	var replaced bool
	err := q.m.Atomically(func(tx *stm.DTx) error {
		var err error
		prev, replaced, err = q.mp.PutTx(tx, k, v)
		return err
	})
	if errors.Is(err, stmds.ErrMapFull) {
		return err
	}
	q.checkPrev("PutTx", k, prev, replaced, err)
	q.model[k] = v
	q.check()
	return nil
}

func (q *quadModel) del(k quad) {
	q.t.Helper()
	q.use(k)
	prev, ok := q.mp.Delete(k)
	q.checkPrev("Delete", k, prev, ok, nil)
	delete(q.model, k)
	q.check()
}

func (q *quadModel) checkPrev(op string, k, prev quad, ok bool, err error) {
	q.t.Helper()
	if err != nil {
		q.t.Fatalf("%s(%v): %v", op, k, err)
	}
	if want, wantOK := q.model[k]; ok != wantOK || prev != want {
		q.t.Fatalf("%s(%v) returned (%v, %v), want (%v, %v)", op, k, prev, ok, want, wantOK)
	}
}

func (q *quadModel) check() {
	q.t.Helper()
	for _, k := range q.keys {
		want, wantOK := q.model[k]
		if got, ok := q.mp.Get(k); ok != wantOK || got != want {
			q.t.Fatalf("Get(%v) = (%v, %v), want (%v, %v)", k, got, ok, want, wantOK)
		}
	}
	got := map[quad]quad{}
	if err := q.m.Atomically(func(tx *stm.DTx) error {
		clear(got)
		q.mp.RangeTx(tx, func(k, v quad) bool {
			got[k] = v
			return true
		})
		return nil
	}); err != nil {
		q.t.Fatal(err)
	}
	if len(got) != len(q.model) {
		q.t.Fatalf("RangeTx yielded %d entries, want %d: %v", len(got), len(q.model), got)
	}
	for k, v := range got {
		if want, ok := q.model[k]; !ok || v != want {
			q.t.Fatalf("RangeTx yielded %v => %v, want %v (present %v)", k, v, want, ok)
		}
	}
}

// fullQuad uses all four words of a quad, shortQuad only the first.
func fullQuad(x uint64) quad  { return quad{x, x + 1, x + 2, x + 3} }
func shortQuad(x uint64) quad { return quad{x} }

func TestMapNeverShowsStaleTails(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		t.Run("value width changes", func(t *testing.T) {
			q := newQuadModel(t, eng, 8)
			q.put(fullQuad(100), fullQuad(200)) // a full-width neighbour to read first
			q.put(shortQuad(7), fullQuad(10))
			for _, v := range []quad{shortQuad(11), {}, {12, 13}, fullQuad(14), {0, 0, 0, 15}, shortQuad(16), fullQuad(17), {}} {
				q.put(shortQuad(7), v)
			}
		})

		t.Run("shorter key in a tombstone", func(t *testing.T) {
			// Eight PutTx fill a fresh 8-slot table (PutTx never grows), so
			// after the delete the only free slot is the tombstone, and the
			// next insert's probe must land there whatever its hash.
			q := newQuadModel(t, eng, 0)
			for i := uint64(1); i <= 8; i++ {
				if err := q.putTx(fullQuad(10*i), fullQuad(100*i)); err != nil {
					t.Fatalf("PutTx %d into an 8-slot table: %v", i, err)
				}
			}
			q.del(fullQuad(40))
			if err := q.putTx(shortQuad(9), shortQuad(90)); err != nil {
				t.Fatalf("PutTx into the tombstone: %v", err)
			}
			q.del(shortQuad(9))
			if err := q.putTx(quad{}, quad{}); err != nil {
				t.Fatalf("PutTx of the all-zero key into the tombstone: %v", err)
			}
		})

		t.Run("growth and migration", func(t *testing.T) {
			q := newQuadModel(t, eng, 0)
			for i := uint64(0); i < 48; i++ {
				k := fullQuad(1000 * i)
				if i%3 == 0 {
					k = shortQuad(1000 * i) // i = 0: the all-zero key
				}
				v := fullQuad(i)
				if i%2 == 0 {
					v = shortQuad(i)
				}
				q.put(k, v)
				if i%4 == 1 {
					q.put(k, shortQuad(i+7)) // shrink mid-migration
				}
				if i%5 == 2 {
					q.del(k)
				}
			}
		})

		t.Run("emergency grow", func(t *testing.T) {
			// As in TestMapUnwedgesAfterPutTxFillsActiveTable: five Puts
			// flip an 8-slot table to 16 slots, the first PutTx calls move
			// the five entries over while PutTx fills the new table, and a
			// standalone Put grows the full table and migrates them again.
			q := newQuadModel(t, eng, 0)
			for i := uint64(0); i < 5; i++ {
				v := fullQuad(i)
				if i%2 == 1 {
					v = shortQuad(i)
				}
				q.put(fullQuad(100+i), v)
			}
			full := false
			for i := uint64(0); i < 64 && !full; i++ {
				full = q.putTx(shortQuad(1000+i), fullQuad(i)) != nil
			}
			if !full {
				t.Fatal("the PutTx flood never filled the active table")
			}
			q.put(shortQuad(99_999), quad{})
			q.put(fullQuad(100), shortQuad(5)) // an entry the flood moved, overwritten mid-migration
		})

		t.Run("all-zero string encodings", func(t *testing.T) {
			m := mustMemEngine(t, 1<<12, eng)
			mp, err := stmds.NewMap[string, string](m, stm.String(16), stm.String(16), 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range [][2]string{{"a-sixteen-byte-k", "a-sixteen-byte-v"}, {"", ""}, {"", "back"}, {"", ""}} {
				if _, _, err := mp.Put(kv[0], kv[1]); err != nil {
					t.Fatal(err)
				}
				if got, ok := mp.Get(kv[0]); !ok || got != kv[1] {
					t.Fatalf("Get(%q) = (%q, %v), want %q", kv[0], got, ok, kv[1])
				}
			}
			if got, ok := mp.Get("a-sixteen-byte-k"); !ok || got != "a-sixteen-byte-v" {
				t.Fatalf("Get of the full-width key = (%q, %v)", got, ok)
			}
		})
	})
}

// The used-width saving as time: one transaction over 64 GetTx/PutTx
// calls on distinct keys, the kv-pipeline batch without the server. The
// short row's encodings use a fraction of their codec (7-byte keys, 24-byte
// values); the full row's use all of it, so it measures the layout's cost
// where it saves nothing.
func BenchmarkMapBatch(b *testing.B) {
	for _, row := range []struct {
		name           string
		keyLen, valLen int
	}{{"short", 7, 24}, {"full", 64, 64}} {
		b.Run(row.name, func(b *testing.B) {
			const keys, batch = 1024, 64
			m, err := stm.New(1 << 18)
			if err != nil {
				b.Fatal(err)
			}
			mp, err := stmds.NewMap[string, string](m, stm.String(64), stm.String(64), keys)
			if err != nil {
				b.Fatal(err)
			}
			key := make([]string, keys)
			val := strings.Repeat("v", row.valLen)
			for i := range key {
				key[i] = fmt.Sprintf("k%0*d", row.keyLen-1, i)
				if _, _, err := mp.Put(key[i], val); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				base := n * batch % keys
				_ = m.Atomically(func(tx *stm.DTx) error {
					for i := 0; i < batch; i++ {
						if k := key[base+i]; i%2 == 0 {
							mp.GetTx(tx, k)
						} else if _, _, err := mp.PutTx(tx, k, val); err != nil {
							return err
						}
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkMapGetServerSize times one Map.Get in a Map of lib-map's and
// stmserve's shape: a 1<<20-word Memory, 4096 keys and 9-word codecs, with
// 7-byte keys and short values. It prices the words' layout where a Get
// meets it at full size: the Memory's chunk table in front of every word.
func BenchmarkMapGetServerSize(b *testing.B) {
	for _, eng := range stm.Engines() {
		b.Run(eng.String(), func(b *testing.B) {
			const keys = 4096
			m, err := stm.New(1<<20, stm.WithEngine(eng))
			if err != nil {
				b.Fatal(err)
			}
			mp, err := stmds.NewMap[string, string](m, stm.String(64), stm.String(64), keys)
			if err != nil {
				b.Fatal(err)
			}
			key := make([]string, keys)
			for i := range key {
				key[i] = fmt.Sprintf("k%06d", i)
				if _, _, err := mp.Put(key[i], fmt.Sprintf("%d:0", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, ok := mp.Get(key[n%keys]); !ok {
					b.Fatal("a stored key is missing")
				}
			}
		})
	}
}
