package stmds_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
)

func mustMem(t *testing.T, words int) *stm.Memory {
	t.Helper()
	m, err := stm.New(words)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustMap(t *testing.T, m *stm.Memory, hint int) *stmds.Map[int64, int64] {
	t.Helper()
	mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), hint)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestMapBasic(t *testing.T) {
	m := mustMem(t, 1<<12)
	mp := mustMap(t, m, 8)

	if _, ok := mp.Get(1); ok {
		t.Fatal("Get on empty map reported a hit")
	}
	if prev, replaced, err := mp.Put(1, 10); err != nil || replaced || prev != 0 {
		t.Fatalf("first Put = (%d, %v, %v)", prev, replaced, err)
	}
	if v, ok := mp.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = (%d, %v), want (10, true)", v, ok)
	}
	if prev, replaced, err := mp.Put(1, 20); err != nil || !replaced || prev != 10 {
		t.Fatalf("overwrite Put = (%d, %v, %v), want (10, true, nil)", prev, replaced, err)
	}
	if v, ok := mp.Get(1); !ok || v != 20 {
		t.Fatalf("Get(1) = (%d, %v), want (20, true)", v, ok)
	}
	if mp.Len() != 1 {
		t.Fatalf("Len = %d, want 1", mp.Len())
	}
	if prev, ok := mp.Delete(1); !ok || prev != 20 {
		t.Fatalf("Delete(1) = (%d, %v), want (20, true)", prev, ok)
	}
	if _, ok := mp.Get(1); ok {
		t.Fatal("Get after Delete reported a hit")
	}
	if _, ok := mp.Delete(1); ok {
		t.Fatal("second Delete reported a hit")
	}
	if mp.Len() != 0 {
		t.Fatalf("Len = %d, want 0", mp.Len())
	}
}

func TestMapGetMakesNoAttempt(t *testing.T) {
	// The cost of a Get as a count: on a quiescent map — no migration to
	// help along — it reads its probe sequence and is done. No engine
	// attempt, no ownership, no help, on either engine; hit or miss.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const gets = 1000
		m := mustMemEngine(t, 1<<14, eng)
		mp := mustMap(t, m, 256)
		for i := int64(0); i < 128; i++ {
			if _, _, err := mp.Put(i, i*3); err != nil {
				t.Fatal(err)
			}
		}
		before := m.Stats()
		for i := int64(0); i < gets; i++ {
			k := i % 256 // the upper half misses
			if v, ok := mp.Get(k); ok != (k < 128) || (ok && v != k*3) {
				t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
			}
		}
		after := m.Stats()
		if d := after.Attempts - before.Attempts; d != 0 {
			t.Errorf("%d Gets made %d engine attempts, want 0", gets, d)
		}
		if d := after.ReadOnlyCommits - before.ReadOnlyCommits; d != gets {
			t.Errorf("%d Gets counted %d read-only commits", gets, d)
		}
		if after.Helps != before.Helps || after.SnapshotExtensions != before.SnapshotExtensions {
			t.Errorf("quiescent Gets helped %d times and extended %d snapshots, want 0 0",
				after.Helps-before.Helps, after.SnapshotExtensions-before.SnapshotExtensions)
		}
	})
}

func TestMapGrowth(t *testing.T) {
	// Start tiny and insert far past the initial table so multiple
	// incremental resizes run; every key must survive them.
	m := mustMem(t, 1<<14)
	mp := mustMap(t, m, 0)
	const n = 500
	for i := int64(0); i < n; i++ {
		if _, _, err := mp.Put(i, i*3); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := mp.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := int64(0); i < n; i++ {
		if v, ok := mp.Get(i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", i, v, ok, i*3)
		}
	}
	// Delete odd keys; the rest must stay intact through tombstones and
	// any cleanup rehash triggered by further churn.
	for i := int64(1); i < n; i += 2 {
		if _, ok := mp.Delete(i); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	for i := int64(0); i < n; i++ {
		v, ok := mp.Get(i)
		if i%2 == 1 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 0 && (!ok || v != i*3) {
			t.Fatalf("Get(%d) = (%d, %v) after deletions", i, v, ok)
		}
	}
	if got := mp.Len(); got != n/2 {
		t.Fatalf("Len = %d, want %d", got, n/2)
	}
}

func TestMapTombstoneChurn(t *testing.T) {
	// Constant-size churn (put then delete) must not wedge the table:
	// tombstone cleanup rehashes keep probe chains finite.
	m := mustMem(t, 1<<14)
	mp := mustMap(t, m, 4)
	for i := int64(0); i < 2000; i++ {
		if _, _, err := mp.Put(i, i); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if _, ok := mp.Delete(i - 2); i >= 2 && !ok {
			t.Fatalf("Delete(%d) missed", i-2)
		}
	}
	if got := mp.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

func TestMapOutOfWords(t *testing.T) {
	// A memory too small to grow in must surface an allocation error from
	// Put, not loop or panic.
	m := mustMem(t, stmds.MapWords[int64, int64](stm.Int64(), stm.Int64(), 8)+4)
	mp := mustMap(t, m, 8)
	var firstErr error
	for i := int64(0); i < 64; i++ {
		if _, _, err := mp.Put(i, i); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("Put never failed in an exhausted memory")
	}
	if !errors.Is(firstErr, stm.ErrOutOfWords) && !errors.Is(firstErr, stmds.ErrMapFull) {
		t.Fatalf("Put error = %v, want ErrOutOfWords or ErrMapFull", firstErr)
	}
}

func TestMapWordsIsExact(t *testing.T) {
	// MapWords and SetWords are what NewMap and NewSet reserve, padding
	// included: each fits a fresh Memory of exactly that many words and
	// leaves the allocator's high-water mark there.
	for _, hint := range []int{0, 1, 8, 100, 4096} {
		for _, max := range [][2]int{{0, 0}, {7, 64}, {64, 16}} {
			kc, vc := stm.String(max[0]), stm.String(max[1])
			want := stmds.MapWords(kc, vc, hint)
			m := mustMem(t, want)
			if _, err := stmds.NewMap(m, kc, vc, hint); err != nil {
				t.Fatalf("hint %d, widths %d+%d: NewMap in MapWords = %d words: %v", hint, kc.Words(), vc.Words(), want, err)
			}
			if got := m.WordsAllocated(); got != want {
				t.Errorf("hint %d, widths %d+%d: NewMap reserved %d words, MapWords says %d", hint, kc.Words(), vc.Words(), got, want)
			}
		}
		want := stmds.SetWords(stm.String(64), hint)
		m := mustMem(t, want)
		if _, err := stmds.NewSet(m, stm.String(64), hint); err != nil {
			t.Fatalf("hint %d: NewSet in SetWords = %d words: %v", hint, want, err)
		}
		if got := m.WordsAllocated(); got != want {
			t.Errorf("hint %d: NewSet reserved %d words, SetWords says %d", hint, got, want)
		}
	}
}

func TestMapTxComposition(t *testing.T) {
	// Move a value between two maps atomically: no interleaving may ever
	// observe the value in both or neither map.
	m := mustMem(t, 1<<12)
	a := mustMap(t, m, 8)
	b := mustMap(t, m, 8)
	if _, _, err := a.Put(7, 70); err != nil {
		t.Fatal(err)
	}
	err := m.Atomically(func(tx *stm.DTx) error {
		v, ok := a.GetTx(tx, 7)
		if !ok {
			return fmt.Errorf("key 7 missing from a")
		}
		a.DeleteTx(tx, 7)
		if _, _, err := b.PutTx(tx, 7, v); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get(7); ok {
		t.Error("key 7 still in a after atomic move")
	}
	if v, ok := b.Get(7); !ok || v != 70 {
		t.Errorf("b.Get(7) = (%d, %v), want (70, true)", v, ok)
	}
	// An aborted transaction must leave both maps untouched.
	wantErr := errors.New("abort")
	err = m.Atomically(func(tx *stm.DTx) error {
		b.DeleteTx(tx, 7)
		if _, _, err := a.PutTx(tx, 7, 70); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Atomically = %v, want the abort error", err)
	}
	if _, ok := a.Get(7); ok {
		t.Error("aborted transaction leaked a put into a")
	}
	if v, ok := b.Get(7); !ok || v != 70 {
		t.Errorf("aborted transaction damaged b: Get(7) = (%d, %v)", v, ok)
	}
}

func TestMapStringKeys(t *testing.T) {
	// Multi-word keys (String codec) probe and compare by canonicalized
	// encoding.
	m := mustMem(t, 1<<14)
	mp, err := stmds.NewMap[string, int64](m, stm.String(16), stm.Int64(), 16)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"alpha", "beta", "gamma", "delta", ""}
	for i, w := range words {
		if _, _, err := mp.Put(w, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range words {
		if v, ok := mp.Get(w); !ok || v != int64(i) {
			t.Fatalf("Get(%q) = (%d, %v), want (%d, true)", w, v, ok, i)
		}
	}
	if _, ok := mp.Get("epsilon"); ok {
		t.Error("absent string key reported present")
	}
}

func TestMapUnwedgesAfterPutTxFillsActiveTable(t *testing.T) {
	// PutTx cannot allocate, so a PutTx-only burst with no Maintain fills
	// the active table to 100% and then reports ErrMapFull. Every write
	// drains a migration in flight, so by then the old table is retired:
	// the state is a full table with no migration in flight, and a
	// standalone Put must grow it rather than report ErrMapFull with the
	// allocator full of free words.
	m := mustMem(t, 1<<16)
	mp := mustMap(t, m, 0) // cap 8
	// Five standalone puts push occupancy to 5/8: the advisory trigger
	// fires at the end of the fifth (4*(5+1) >= 3*8) and flips to a
	// 16-slot active table with all five entries in the old table. The
	// first two PutTx calls below move them over, a chunk of 4 slots each.
	const seeded = 5
	for i := int64(0); i < seeded; i++ {
		if _, _, err := mp.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	// Flood through PutTx only: no growth. The 16-slot active table must
	// fill to 100% live and PutTx must then report ErrMapFull.
	var inserted int64
	var txFull bool
	for i := int64(0); i < 64 && !txFull; i++ {
		err := m.Atomically(func(tx *stm.DTx) error {
			_, _, err := mp.PutTx(tx, 10_000+i, i)
			if errors.Is(err, stmds.ErrMapFull) {
				txFull = true
				return nil
			}
			if err == nil {
				inserted = i + 1
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !txFull {
		t.Fatal("PutTx flood never filled the active table — the setup no longer works; revisit the trigger arithmetic")
	}
	// A standalone Put of a fresh key grows the full table and succeeds
	// instead of reporting ErrMapFull forever.
	if _, _, err := mp.Put(99_999, 1); err != nil {
		t.Fatalf("standalone Put into the full table: %v", err)
	}
	// Everything inserted — seeded (moved by the flood), flooded, and the
	// growing key — must still be retrievable.
	for i := int64(0); i < seeded; i++ {
		if v, ok := mp.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = (%d, %v) after recovery", i, v, ok)
		}
	}
	for i := int64(0); i < inserted; i++ {
		if v, ok := mp.Get(10_000 + i); !ok || v != i {
			t.Fatalf("Get(%d) = (%d, %v) after recovery", 10_000+i, v, ok)
		}
	}
	if v, ok := mp.Get(99_999); !ok || v != 1 {
		t.Fatalf("Get(99999) = (%d, %v)", v, ok)
	}
	if got, want := int64(mp.Len()), seeded+inserted+1; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// And the structure is fully functional afterwards: more growth works.
	for i := int64(0); i < 100; i++ {
		if _, _, err := mp.Put(50_000+i, i); err != nil {
			t.Fatalf("post-recovery Put(%d): %v", 50_000+i, err)
		}
	}
	if got, want := int64(mp.Len()), seeded+inserted+1+100; got != want {
		t.Fatalf("post-recovery Len = %d, want %d", got, want)
	}
}

func TestMapEncodedKeyEquality(t *testing.T) {
	// Keys are equal iff their encodings are equal — the same convention
	// as Var.CompareAndSwap. A canonicalizing codec (String truncates to
	// capacity) must therefore treat "abcd" and "abcdX" as one key: the
	// second put overwrites, it never creates a duplicate live entry.
	m := mustMem(t, 1<<12)
	mp, err := stmds.NewMap[string, int64](m, stm.String(4), stm.Int64(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mp.Put("abcd", 1); err != nil {
		t.Fatal(err)
	}
	prev, replaced, err := mp.Put("abcdX", 2)
	if err != nil || !replaced || prev != 1 {
		t.Fatalf("canonical-equal Put = (%d, %v, %v), want (1, true, nil)", prev, replaced, err)
	}
	if got := mp.Len(); got != 1 {
		t.Fatalf("Len = %d after canonical-equal puts, want 1", got)
	}
	if v, ok := mp.Get("abcd"); !ok || v != 2 {
		t.Fatalf("Get(abcd) = (%d, %v), want (2, true)", v, ok)
	}
	if v, ok := mp.Get("abcdYZ"); !ok || v != 2 {
		t.Fatalf("Get via another canonical-equal spelling = (%d, %v), want (2, true)", v, ok)
	}
	if prev, ok := mp.Delete("abcdZZZ"); !ok || prev != 2 {
		t.Fatalf("Delete via canonical-equal spelling = (%d, %v), want (2, true)", prev, ok)
	}
	if got := mp.Len(); got != 0 {
		t.Fatalf("Len = %d after delete, want 0 (no ghost duplicate)", got)
	}
}

func TestMapConcurrentDisjointKeys(t *testing.T) {
	// Workers own disjoint key ranges through heavy growth; every
	// worker's final writes must survive, and Len must agree.
	const (
		workers = 4
		perW    = 300
	)
	m := mustMem(t, 1<<16)
	mp := mustMap(t, m, 4) // tiny: force concurrent migrations
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perW)
			for i := int64(0); i < perW; i++ {
				k := base + i
				if _, _, err := mp.Put(k, k*7); err != nil {
					errs <- fmt.Errorf("Put(%d): %w", k, err)
					return
				}
				if i%3 == 0 {
					if _, ok := mp.Delete(k); !ok {
						errs <- fmt.Errorf("Delete(%d) missed own key", k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := 0
	for w := 0; w < workers; w++ {
		for i := int64(0); i < perW; i++ {
			k := int64(w*perW) + i
			v, ok := mp.Get(k)
			if i%3 == 0 {
				if ok {
					t.Fatalf("deleted key %d present", k)
				}
				continue
			}
			want++
			if !ok || v != k*7 {
				t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, k*7)
			}
		}
	}
	if got := mp.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestMapConcurrentSameKeys(t *testing.T) {
	// All workers hammer the same small key set while churn forces
	// migrations; afterwards every key holds some value a worker wrote
	// for it, and conservation holds (presence matches the last
	// committed op, which we can't predict — but values must be
	// well-formed: v%keys == k).
	const (
		workers = 4
		keys    = 8
		ops     = 400
	)
	m := mustMem(t, 1<<16)
	mp := mustMap(t, m, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < ops; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int64(rng % keys)
				switch rng % 3 {
				case 0:
					v := int64(rng%1000)*keys + k // v%keys == k
					if _, _, err := mp.Put(k, v); err != nil {
						t.Error(err)
						return
					}
				case 1:
					mp.Delete(k)
				default:
					if v, ok := mp.Get(k); ok && v%keys != k {
						t.Errorf("Get(%d) returned torn value %d", k, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for k := int64(0); k < keys; k++ {
		if v, ok := mp.Get(k); ok {
			n++
			if v%keys != k {
				t.Errorf("final Get(%d) = %d, not a value any worker wrote", k, v)
			}
		}
	}
	if got := mp.Len(); got != n {
		t.Errorf("Len = %d, but %d keys answer Get", got, n)
	}
}

func TestMapRangeTx(t *testing.T) {
	m := mustMem(t, 1<<12)
	mp := mustMap(t, m, 8)
	want := map[int64]int64{}
	for k := int64(0); k < 20; k++ {
		if _, _, err := mp.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
		want[k] = k * 10
	}
	mp.Delete(3)
	delete(want, 3)

	got := map[int64]int64{}
	var n int
	if err := m.Atomically(func(tx *stm.DTx) error {
		// Re-executions must not accumulate: reset per attempt.
		got = map[int64]int64{}
		n = 0
		mp.RangeTx(tx, func(k, v int64) bool {
			got[k] = v
			n++
			return true
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || n != len(want) {
		t.Fatalf("RangeTx yielded %d entries, want %d", n, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("RangeTx[%d] = %d, want %d", k, got[k], v)
		}
	}

	// Early stop: yield returning false ends the iteration.
	if err := m.Atomically(func(tx *stm.DTx) error {
		n = 0
		mp.RangeTx(tx, func(k, v int64) bool {
			n++
			return n < 5
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early-stopped RangeTx yielded %d entries, want 5", n)
	}
}

// TestMapRangeTxDuringMigration pins the no-duplicate claim: mid-resize a
// live key is in exactly one table, so ranging both tables yields each key
// once with its live value.
func TestMapRangeTxDuringMigration(t *testing.T) {
	m := mustMem(t, 1<<14)
	mp := mustMap(t, m, 0) // minimal table: growth (and migration) happen early
	const keys = 40
	for k := int64(0); k < keys; k++ {
		if _, _, err := mp.Put(k, k+1000); err != nil {
			t.Fatal(err)
		}
		// Overwrite a prefix every round so some keys have old-table copies
		// that later puts tombstone mid-migration.
		if _, _, err := mp.Put(k/2, k/2+1000); err != nil {
			t.Fatal(err)
		}
		got := map[int64]int64{}
		dup := false
		if err := m.Atomically(func(tx *stm.DTx) error {
			got = map[int64]int64{}
			dup = false
			mp.RangeTx(tx, func(kk, vv int64) bool {
				if _, seen := got[kk]; seen {
					dup = true
					return false
				}
				got[kk] = vv
				return true
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if dup {
			t.Fatalf("after %d puts: RangeTx yielded a key twice", k+1)
		}
		if len(got) != int(k)+1 {
			t.Fatalf("after %d puts: RangeTx yielded %d keys", k+1, len(got))
		}
		for kk, vv := range got {
			if vv != kk+1000 {
				t.Fatalf("RangeTx[%d] = %d, want %d", kk, vv, kk+1000)
			}
		}
	}
}

// TestMapRangeTxWritesDuringMigration pins RangeTx's documented limit on
// writing inside yield. With no migration in flight, a PutTx of each
// yielded entry leaves the iteration whole. Mid-resize each such write
// moves a chunk of old-table entries into the active table, which the
// scan has already passed, so entries not yet visited are hidden: the
// range yields fewer keys, each once, and exactly those are updated.
// Collecting the keys and writing after the range, in the same
// transaction, yields and updates every entry mid-resize too.
func TestMapRangeTxWritesDuringMigration(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const keys = 48 // crosses 3/4 of the hint's 64-slot table
		// newMap loads keys => 0 through PutTx, which never migrates with
		// no migration in flight; flip then has Maintain move to 128
		// slots with every entry still in the old table.
		newMap := func(flip bool) (*stm.Memory, *stmds.Map[int64, int64]) {
			m := mustMemEngine(t, 1<<14, eng)
			mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), 40)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Atomically(func(tx *stm.DTx) error {
				for k := int64(0); k < keys; k++ {
					if _, _, err := mp.PutTx(tx, k, 0); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if flip {
				if err := mp.Maintain(); err != nil {
					t.Fatal(err)
				}
			}
			return m, mp
		}
		// bumpInside puts v+1 under every key RangeTx yields, from inside
		// yield, and returns the keys yielded; a key yielded twice, or
		// with a value other than 0, fails the test.
		bumpInside := func(m *stm.Memory, mp *stmds.Map[int64, int64]) map[int64]bool {
			var seen map[int64]bool
			if err := m.Atomically(func(tx *stm.DTx) error {
				seen = map[int64]bool{}
				var err error
				mp.RangeTx(tx, func(k, v int64) bool {
					if seen[k] || v != 0 {
						err = fmt.Errorf("RangeTx yielded %d => %d (seen before: %v), want each key once => 0", k, v, seen[k])
						return false
					}
					seen[k] = true
					_, _, err = mp.PutTx(tx, k, v+1)
					return err == nil
				})
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < keys; k++ {
				want := int64(0)
				if seen[k] {
					want = 1
				}
				if v, ok := mp.Get(k); !ok || v != want {
					t.Fatalf("Get(%d) = %d,%v after the range, want %d", k, v, ok, want)
				}
			}
			return seen
		}

		if seen := bumpInside(newMap(false)); len(seen) != keys {
			t.Fatalf("no migration in flight: writing inside yield saw %d of %d keys", len(seen), keys)
		}
		if seen := bumpInside(newMap(true)); len(seen) == 0 || len(seen) >= keys {
			t.Fatalf("mid-resize: writing inside yield saw %d of %d keys, want some hidden by the moves", len(seen), keys)
		}

		m, mp := newMap(true)
		var n int
		if err := m.Atomically(func(tx *stm.DTx) error {
			var ks []int64
			mp.RangeTx(tx, func(k, _ int64) bool {
				ks = append(ks, k)
				return true
			})
			n = len(ks)
			for _, k := range ks {
				if _, _, err := mp.PutTx(tx, k, 1); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != keys {
			t.Fatalf("mid-resize: collecting range saw %d of %d keys", n, keys)
		}
		for k := int64(0); k < keys; k++ {
			if v, ok := mp.Get(k); !ok || v != 1 {
				t.Fatalf("Get(%d) = %d,%v after collect-then-write, want 1", k, v, ok)
			}
		}
		if got := mp.Len(); got != keys {
			t.Fatalf("Len = %d, want %d", got, keys)
		}
	})
}
