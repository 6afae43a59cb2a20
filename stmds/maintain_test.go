package stmds_test

// Map.Maintain: the growth trigger for workloads that only ever mutate the
// map through the Tx forms (PutTx inside a caller's transaction cannot
// allocate, so it cannot start growth). A network server feeding every
// mutation through batched transactions is exactly such a workload;
// without Maintain PutTx would return ErrMapFull with the allocator full
// of free words. Once a resize has started, the PutTx calls themselves
// drain it, a chunk per write.

import (
	"errors"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
)

func TestMapMaintainGrowsTxOnlyWorkload(t *testing.T) {
	for _, in := range []struct {
		name         string
		words, hint  int
		total, batch int64
	}{
		// Small batches far past a tiny hint.
		{"hint 8, batches of 4", 1 << 16, 8, 512, 4},
		// A server's pipelines: each batch is half the hint, so the
		// batches after a flip insert into the new table while the old
		// one still holds most of the entries. Only the PutTx calls
		// drain it; if they did not, the new table would fill first.
		{"hint 256, batches of 128", 1 << 18, 256, 4096, 128},
	} {
		t.Run(in.name, func(t *testing.T) {
			forEachEngine(t, func(t *testing.T, eng stm.Engine) {
				m := mustMemEngine(t, in.words, eng)
				mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), in.hint)
				if err != nil {
					t.Fatal(err)
				}
				// Insert far past the hint, mutating ONLY through PutTx and
				// calling Maintain between batches the way a server does.
				// Every insert must land.
				full := 0
				for lo := int64(0); lo < in.total; lo += in.batch {
					var refused int
					if err := m.Atomically(func(tx *stm.DTx) error {
						refused = 0
						for k := lo; k < lo+in.batch; k++ {
							if _, _, err := mp.PutTx(tx, k, k*3); errors.Is(err, stmds.ErrMapFull) {
								refused++
							} else if err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Fatalf("batch at %d: %v", lo, err)
					}
					full += refused
					if err := mp.Maintain(); err != nil {
						t.Fatalf("Maintain at %d: %v", lo, err)
					}
				}
				if got := mp.Len(); full != 0 || got != int(in.total) {
					t.Fatalf("%d PutTx calls returned ErrMapFull and Len = %d; want 0 and %d", full, got, in.total)
				}
				for k := int64(0); k < in.total; k++ {
					if v, ok := mp.Get(k); !ok || v != k*3 {
						t.Fatalf("Get(%d) = %d,%v want %d", k, v, ok, k*3)
					}
				}

				// Maintain on a settled table is a cheap no-op.
				for i := 0; i < 4; i++ {
					if err := mp.Maintain(); err != nil {
						t.Fatalf("idle Maintain: %v", err)
					}
				}
			})
		})
	}
}

// TestMapDeletesDrainMigration pins that a delete that finds its key is a
// write, and drains a migration like one: after a flip, DeleteTx calls
// alone, ocap/4 of them, retire the old table. A Get miss shows it through
// its footprint: while the old table is in flight the miss reads its base
// and at least one of its slots besides the active geometry and chain.
// Gets and deletes that miss are reads and must not move the migration.
func TestMapDeletesDrainMigration(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		m := mustMemEngine(t, 1<<12, eng)
		mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Five Puts cross 3/4 of the 8-slot table; the fifth's trigger
		// flips to 16 slots with all five entries still in the old table.
		const seeded, ocap = 5, 8
		for k := int64(0); k < seeded; k++ {
			if _, _, err := mp.Put(k, k+100); err != nil {
				t.Fatal(err)
			}
		}
		// cheapestMiss returns the smallest footprint of a GetTx miss over
		// 64 absent keys: 3 geometry words and the home slot once the old
		// table is retired, at least 4 + 1 + 1 while it is in flight.
		cheapestMiss := func() int {
			least := 1 << 30
			for k := int64(1000); k < 1064; k++ {
				var hit bool
				if err := m.Atomically(func(tx *stm.DTx) error {
					_, hit = mp.GetTx(tx, k)
					least = min(least, tx.Footprint())
					return nil
				}); err != nil || hit {
					t.Fatalf("GetTx of absent key %d: found %v, err %v", k, hit, err)
				}
			}
			return least
		}
		del := func(k int64) bool {
			var found bool
			if err := m.Atomically(func(tx *stm.DTx) error {
				_, found = mp.DeleteTx(tx, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return found
		}

		if got := cheapestMiss(); got < 4+1+1 {
			t.Fatalf("after the flip a miss reads %d words, want the old table's base and a slot too", got)
		}
		for k := int64(2000); k < 2000+ocap/4; k++ {
			if del(k) {
				t.Fatalf("DeleteTx(%d) found an absent key", k)
			}
		}
		if got := cheapestMiss(); got < 4+1+1 {
			t.Fatalf("deletes that missed retired the old table: a miss reads %d words", got)
		}
		for k := int64(0); k < ocap/4; k++ {
			if !del(k) {
				t.Fatalf("DeleteTx(%d) missed", k)
			}
		}
		if got := cheapestMiss(); got != 3+1 {
			t.Fatalf("after %d found deletes the cheapest miss reads %d words, want 3 + 1: the old table is still in flight", ocap/4, got)
		}
		for k := int64(ocap / 4); k < seeded; k++ {
			if v, ok := mp.Get(k); !ok || v != k+100 {
				t.Fatalf("Get(%d) = %d,%v after the drain, want %d", k, v, ok, k+100)
			}
		}
		if got := mp.Len(); got != seeded-ocap/4 {
			t.Fatalf("Len = %d, want %d", got, seeded-ocap/4)
		}
	})
}
