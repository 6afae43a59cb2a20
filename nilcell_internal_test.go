package stm

// Every word's first box is nil, standing for 0 (core.BoxVal): a Memory is
// built without storing a box into any word. These tests pin what that
// means through every read path, for equal-value writes, and for a commit
// over fresh words that a reader has to help to completion.

import (
	"sync/atomic"
	"testing"
)

// fresh returns a Memory of n words on eng, none of them ever written.
func fresh(t *testing.T, eng Engine, n int) *Memory {
	t.Helper()
	m, err := New(n, WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNilCellReadsZero(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m := fresh(t, eng, 64)
			for a := 0; a < 16; a++ {
				if box := m.eng.LoadBox(a); box != nil {
					t.Fatalf("word %d starts with a box, want nil", a)
				}
			}
			if got := m.Peek(1); got != 0 {
				t.Errorf("Peek = %d, want 0", got)
			}
			var dyn [2]uint64
			if err := m.Atomically(func(tx *DTx) error {
				dyn[0], dyn[1] = tx.Read(2), tx.Read(3)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if dyn != [2]uint64{} {
				t.Errorf("DTx.Read = %v, want [0 0]", dyn)
			}
			all := []uint64{9, 9}
			if err := m.ReadAllInto([]int{4, 5}, all); err != nil {
				t.Fatal(err)
			}
			if all[0] != 0 || all[1] != 0 {
				t.Errorf("ReadAllInto = %v, want [0 0]", all)
			}
			// A static RunInto's old values come from the ST agreement or
			// the TL2 invisible read; the write over word 7 replaces its
			// nil cell.
			tx, err := m.Prepare([]int{6, 7})
			if err != nil {
				t.Fatal(err)
			}
			old := []uint64{9, 9}
			tx.RunInto(func(o, n []uint64) { n[0], n[1] = o[0], o[1]+5 }, old)
			if old[0] != 0 || old[1] != 0 {
				t.Errorf("RunInto old = %v, want [0 0]", old)
			}
			if got := m.Peek(7); got != 5 || m.eng.LoadBox(7) == nil {
				t.Errorf("after writing 5: Peek = %d, box %p; want 5 in a box", got, m.eng.LoadBox(7))
			}
			v, err := VarAt(m, Uint64(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if got := v.Load(); got != 0 {
				t.Errorf("Var.Load = %d, want 0", got)
			}
		})
	}
}

// TestNilCellEqualValueWriteKeepsNil pins nil as a version witness: a write
// of 0 over a word nobody has written is an equal-value write and keeps the
// nil cell, so a speculation that read the word stays current; a write of 1
// replaces the cell and makes that speculation stale.
func TestNilCellEqualValueWriteKeepsNil(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m := fresh(t, eng, 64)
			writers := []struct {
				name  string
				write func(a int)
			}{
				{"RunInto", func(a int) {
					tx, err := m.Prepare([]int{a})
					if err != nil {
						t.Fatal(err)
					}
					tx.RunInto(func(o, n []uint64) { n[0] = 0 }, nil)
				}},
				{"WriteAll", func(a int) {
					if err := m.WriteAll([]int{a}, []uint64{0}); err != nil {
						t.Fatal(err)
					}
				}},
				{"Var.Store", func(a int) {
					v, err := VarAt(m, Uint64(), a)
					if err != nil {
						t.Fatal(err)
					}
					v.Store(0)
				}},
				{"blind DTx.Write", func(a int) {
					if err := m.Atomically(func(tx *DTx) error { tx.Write(a, 0); return nil }); err != nil {
						t.Fatal(err)
					}
				}},
				{"DTx.Read+Write", func(a int) {
					if err := m.Atomically(func(tx *DTx) error { tx.Write(a, tx.Read(a)); return nil }); err != nil {
						t.Fatal(err)
					}
				}},
			}
			for i, w := range writers {
				w.write(i)
				if box := m.eng.LoadBox(i); box != nil {
					t.Errorf("%s of 0: the word's cell holds %p (value %d), want nil", w.name, box, *box)
				}
			}

			// A speculation reads word a, a foreign commit writes val there,
			// and the speculation's next read checks its snapshot.
			speculate := func(a int, val uint64) (execs int, stale uint64) {
				m.ResetStats()
				tx, err := m.Prepare([]int{a})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Atomically(func(d *DTx) error {
					execs++
					d.Read(a)
					if execs == 1 {
						tx.RunInto(func(o, n []uint64) { n[0] = val }, nil)
					}
					d.Read(a + 1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return execs, m.Stats().SnapshotStale
			}
			if execs, stale := speculate(20, 0); execs != 1 || stale != 0 {
				t.Errorf("a 0 written under a speculation: %d executions, %d stale extensions; want 1, 0", execs, stale)
			}
			if box := m.eng.LoadBox(20); box != nil {
				t.Errorf("after the 0 write the cell holds %p, want nil", box)
			}
			if execs, stale := speculate(30, 1); execs != 2 || stale != 1 {
				t.Errorf("a 1 written under a speculation: %d executions, %d stale extensions; want 2, 1", execs, stale)
			}
			if got := m.Peek(30); got != 1 {
				t.Errorf("Peek = %d after writing 1", got)
			}
		})
	}
}

// TestNilCellHelpedCommitInstalls parks an ST commit over two fresh words at
// ChaosSTPostLock — both owned, no old value agreed, nothing installed — and
// reads one of them: the reader helps the commit to completion, agreeing a
// nil cell's old value as 0, and sees the installed value; the initiator,
// released, reports the same old values and installs nothing twice.
func TestNilCellHelpedCommitInstalls(t *testing.T) {
	m := fresh(t, ST, 64)
	var armed atomic.Bool
	armed.Store(true)
	parked, release := make(chan struct{}), make(chan struct{})
	m.SetChaos(func(e ChaosEvent) {
		if e.Point == ChaosSTPostLock && armed.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-release
		}
	})
	tx, err := m.Prepare([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	old := []uint64{9, 9}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx.RunInto(func(o, n []uint64) { n[0], n[1] = o[0]+5, o[1]+6 }, old)
	}()
	<-parked
	var got uint64
	if err := m.Atomically(func(d *DTx) error { got = d.Read(3); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("reader saw %d, want the helped commit's 5", got)
	}
	if h := m.Stats().Helps; h == 0 {
		t.Error("the reader did not help the parked commit")
	}
	close(release)
	<-done
	m.SetChaos(nil)
	if old[0] != 0 || old[1] != 0 {
		t.Errorf("initiator's old values = %v, want [0 0]", old)
	}
	if a, b := m.Peek(3), m.Peek(4); a != 5 || b != 6 {
		t.Errorf("installed values = %d, %d; want 5, 6", a, b)
	}
}
