package stmds_test

// Native fuzz target for the map's hashing, probe-chain, and incremental
// resize invariants: an arbitrary operation stream driven against Go's
// built-in map as the sequential model, once over one-word int64 entries
// and once over variable-length strings, whose used widths change as
// values are overwritten and as keys of other lengths reuse tombstones.
// `go test` runs the seed corpus; `go test -fuzz=FuzzMapModel ./stmds`
// explores further.

import (
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
)

// mapModelKeys is the model's key space: op bytes select keys 0..63, and
// keys 64..67 are never inserted.
const mapModelKeys = 64

func FuzzMapModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{0, 255, 3, 17, 0, 255, 3, 17, 9})
	f.Add([]byte{})
	// Width changes, then tombstones, then growth with migration: one key
	// overwritten with values of 24, 4, 0 and 21 bytes; twelve inserts and
	// six deletes; then fifty inserts and overwrites, through which later
	// keys land in tombstones and the table grows and migrates.
	churn := []byte{5, 24, 5, 4, 5, 0, 5, 21}
	for k := byte(8); k < 20; k++ {
		churn = append(churn, k, 4*k+1)
	}
	for k := byte(8); k < 20; k += 2 {
		churn = append(churn, k, 3)
	}
	for i := byte(0); i < 50; i++ {
		churn = append(churn, 7*i+3, 4*i)
	}
	f.Add(churn)

	f.Fuzz(func(t *testing.T, ops []byte) {
		t.Run("int64", func(t *testing.T) {
			runMapModel(t, ops, stm.Int64(), stm.Int64(),
				func(k int) int64 { return int64(k) },
				func(b byte, k int64) int64 { return int64(b)*mapModelKeys + k })
		})
		t.Run("string", func(t *testing.T) {
			runMapModel(t, ops, stm.String(24), stm.String(24), modelStringKey,
				func(b byte, k string) string {
					// 0..24 bytes: used widths 0 (the empty string) to 4.
					return strings.Repeat(string(rune('A'+len(k)%26)), int(b)%25)
				})
		})
	})
}

// modelStringKey maps 0..67 to distinct strings of 0..17 bytes, so the
// key space spans used widths 0 (the empty key) to 4.
func modelStringKey(k int) string {
	if k == 0 {
		return ""
	}
	return strings.Repeat(string(rune('a'+k%4)), 1+k/4)
}

// runMapModel drives ops against a Map built from kc and vc and against a
// Go map: each op byte pair selects a key (key) and an operation, and a put
// stores val of the second byte.
func runMapModel[K comparable, V comparable](t *testing.T, ops []byte, kc stm.Codec[K], vc stm.Codec[V], key func(int) K, val func(byte, K) V) {
	m, err := stm.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately undersized hint: growth and migration run mid-stream.
	mp, err := stmds.NewMap[K, V](m, kc, vc, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[K]V)
	for i := 0; i+1 < len(ops); i += 2 {
		k := key(int(ops[i] % mapModelKeys))
		switch ops[i+1] % 4 {
		case 0, 1: // put (weighted: growth needs inserts)
			v := val(ops[i+1], k)
			wantPrev, wantOk := model[k]
			prev, replaced, err := mp.Put(k, v)
			if err != nil {
				t.Fatalf("op %d: Put(%v, %v): %v", i, k, v, err)
			}
			if replaced != wantOk || (wantOk && prev != wantPrev) {
				t.Fatalf("op %d: Put(%v) = (%v, %v), model (%v, %v)", i, k, prev, replaced, wantPrev, wantOk)
			}
			model[k] = v
		case 2: // get
			wantV, wantOk := model[k]
			v, ok := mp.Get(k)
			if ok != wantOk || (wantOk && v != wantV) {
				t.Fatalf("op %d: Get(%v) = (%v, %v), model (%v, %v)", i, k, v, ok, wantV, wantOk)
			}
		default: // delete
			wantPrev, wantOk := model[k]
			prev, ok := mp.Delete(k)
			if ok != wantOk || (wantOk && prev != wantPrev) {
				t.Fatalf("op %d: Delete(%v) = (%v, %v), model (%v, %v)", i, k, prev, ok, wantPrev, wantOk)
			}
			delete(model, k)
		}
	}
	// Final sweep: every model key present with its value, length in
	// agreement, and a sample of absent keys really absent.
	if got := mp.Len(); got != len(model) {
		t.Fatalf("Len = %d, model has %d", got, len(model))
	}
	for k, wantV := range model {
		if v, ok := mp.Get(k); !ok || v != wantV {
			t.Fatalf("final Get(%v) = (%v, %v), model %v", k, v, ok, wantV)
		}
	}
	for k := mapModelKeys; k < mapModelKeys+4; k++ {
		if _, ok := mp.Get(key(k)); ok {
			t.Fatalf("key %v was never inserted but Get hit", key(k))
		}
	}
}
