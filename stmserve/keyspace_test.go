package stmserve

// The keyspace's growth as a server drives it: every SET is a PutTx inside
// a batch transaction, so only those writes drain a resize, and
// Session.execute's Maintain between batches only starts one.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
)

// loadKeys feeds SETs of keys lo..hi-1 through s, pipeline commands per
// Feed, and returns how many were refused with msgMapFull.
func loadKeys(t *testing.T, s *Session, out *bytes.Buffer, lo, hi, pipeline int) int {
	t.Helper()
	refused := 0
	var in bytes.Buffer
	for b := lo; b < hi; b += pipeline {
		in.Reset()
		for k := b; k < min(b+pipeline, hi); k++ {
			fmt.Fprintf(&in, "SET key:%d val:%d\r\n", k, k)
		}
		out.Reset()
		if err := s.Feed(in.Bytes()); err != nil {
			t.Fatalf("Feed at key %d: %v", b, err)
		}
		refused += strings.Count(out.String(), msgMapFull)
	}
	return refused
}

// wantValue checks that GET key:k returns val:k.
func wantValue(t *testing.T, srv *Server, k int) {
	t.Helper()
	val := fmt.Sprintf("val:%d", k)
	if got, want := feed(t, srv, fmt.Sprintf("GET key:%d\r\n", k)), fmt.Sprintf("$%d\r\n%s\r\n", len(val), val); got != want {
		t.Fatalf("GET key:%d = %q, want %q", k, got, want)
	}
}

// TestKeyspaceGrowsUnderPipelinedSets loads fresh keys through one
// Session in 128-SET pipelines, each one batch transaction. After every
// flip the next batches insert into the new table while the old one holds
// most of the keys, so the SETs themselves must drain it: none may be
// refused.
func TestKeyspaceGrowsUnderPipelinedSets(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		srv, err := New(Config{Engine: eng, MemoryWords: 1 << 18, KeyspaceHint: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var out bytes.Buffer
		const keys = 2048
		if n := loadKeys(t, srv.NewSession(&out), &out, 0, keys, maxBatch); n != 0 {
			t.Fatalf("%d of %d fresh-key SETs replied %q", n, keys, msgMapFull)
		}
		wantValue(t, srv, 0)
		wantValue(t, srv, keys-1)
	})
}

// keyspaceCapacity returns the most keys the keyspace of a server with
// cfg can hold: its table doubles from the hint's while the next one fits
// in the Memory words left, and the last table can fill completely. The
// words are those MapWords reserves, then whole tables of slots, each
// placed at the allocator's 8-word alignment.
func keyspaceCapacity(cfg Config) int {
	cfg = cfg.withDefaults()
	kc, vc := keyCodec{}, valCodec{}
	slot := 1 + kc.Words() + vc.Words()
	used := stmds.MapWords[wireKey, wireVal](kc, vc, cfg.KeyspaceHint)
	slots := (used - stmds.MapWords[wireKey, wireVal](kc, nil, cfg.KeyspaceHint)) / vc.Words()
	for {
		used = (used + 7) &^ 7
		if used+2*slots*slot > cfg.MemoryWords {
			return slots
		}
		used += 2 * slots * slot
		slots *= 2
	}
}

// TestKeyspaceCapacity pins the capacities that Config.MemoryWords, doc.go
// and cmd/stmserve state: a default server's Memory holds the first
// keyspace table and one doubling, so at most 16,384 keys, and the usage
// example's -words 4194304 -keys 16384 holds 65,536. Then a small server,
// loaded to the capacity the same arithmetic gives it, refuses the next
// fresh key.
func TestKeyspaceCapacity(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want int
	}{
		{Config{}, 16384},
		{Config{MemoryWords: 4194304, KeyspaceHint: 16384}, 65536},
	} {
		if got := keyspaceCapacity(c.cfg); got != c.want {
			t.Fatalf("%d words, hint %d: the keyspace holds %d keys; the docs say %d", c.cfg.MemoryWords, c.cfg.KeyspaceHint, got, c.want)
		}
	}
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		cfg := Config{Engine: eng, MemoryWords: 1 << 14, KeyspaceHint: 64}
		capacity := keyspaceCapacity(cfg)
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var out bytes.Buffer
		s := srv.NewSession(&out)
		if n := loadKeys(t, s, &out, 0, capacity, 64); n != 0 {
			t.Fatalf("%d of the first %d fresh-key SETs replied %q", n, capacity, msgMapFull)
		}
		if n := loadKeys(t, s, &out, capacity, capacity+1, 64); n != 1 {
			t.Fatalf("SET of key %d past the capacity: reply %q, want %q", capacity, out.String(), msgMapFull)
		}
		wantValue(t, srv, 0)
		wantValue(t, srv, capacity-1)
	})
}
