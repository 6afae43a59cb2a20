package stm

// White-box tests for what a pooled DTx keeps and what it pays: neither may
// depend on the largest transaction the handle ever ran. They sit beside
// the alloc pins (alloc_test.go's TestAllocsAtomicallyDynamic), which hold
// the other half of the pool contract — that recycling buys 0 allocs/op.

import "testing"

// readRange returns a transaction function reading words [0, n), registering
// a hook of each kind, and handing the handle to inspect (which may be nil).
func readRange(n int, retry bool, inspect func(*DTx)) func(*DTx) error {
	return func(tx *DTx) error {
		tx.OnCommit(func() {})
		tx.OnAbort(func() {})
		for a := 0; a < n; a++ {
			tx.Read(a)
		}
		if inspect != nil {
			inspect(tx)
		}
		if retry {
			tx.Retry()
		}
		return nil
	}
}

func TestPooledDTxIsHistoryFree(t *testing.T) {
	const big, small = 2000, 20
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m, err := New(big, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			// sync.Pool may drop a handle (under the race detector it does so
			// at random), so go round again until the grown one comes back.
			for try := 0; ; try++ {
				if try == 50 {
					t.Fatal("the pool never handed the grown handle back")
				}
				// The big operation ends small: its first round logs (and, the
				// first branch retrying, saves) big reads, a foreign commit
				// invalidates that round at commit, and the round that commits
				// touches small words — so what is left behind beyond the final
				// lengths is for the high-water marks to find.
				round := 0
				if err := m.OrElse(
					func(tx *DTx) error {
						round++
						n := small
						if round == 1 {
							n = big
						}
						return readRange(n, true, nil)(tx)
					},
					func(tx *DTx) error {
						if round == 1 {
							bump, err := m.Prepare([]int{0})
							if err != nil {
								return err
							}
							bump.RunInto(func(o, n []uint64) { n[0] = o[0] + 1 }, nil)
						}
						return readRange(small, false, nil)(tx)
					}); err != nil {
					t.Fatal(err)
				}
				if round != 2 {
					t.Fatalf("big operation took %d rounds, want 2", round)
				}
				var grown bool
				if err := m.OrElse(readRange(small, true, nil), readRange(small, false, func(tx *DTx) {
					grown = cap(tx.log) >= big
					// What this operation pays to reset and recycle the handle
					// is bounded by what it wrote, not by the handle's capacity:
					// the index in use is the smallest table, and the prefix
					// putDTx will clear is this operation's own high-water mark.
					if tx.idxBits != dtxIdxMinBits {
						t.Errorf("a %d-word log indexes through 1<<%d slots, want 1<<%d", small, tx.idxBits, dtxIdxMinBits)
					}
					if hw := max(tx.logHW, len(tx.log)); hw != small {
						t.Errorf("log high-water mark = %d in a %d-word transaction", hw, small)
					}
					if tx.altHW != small {
						t.Errorf("saved-branch high-water mark = %d in a %d-word transaction", tx.altHW, small)
					}
				})); err != nil {
					t.Fatal(err)
				}
				d := m.getDTx()
				if !grown || cap(d.log) < big {
					continue
				}
				// An idle pooled handle retains nothing of the operations it
				// served: no box pointer anywhere in the backing arrays, no hook.
				for i, e := range d.log[:cap(d.log)] {
					if e.box != nil {
						t.Fatalf("pooled DTx retains a box pointer at log[%d] (cap %d)", i, cap(d.log))
					}
				}
				for i, box := range d.altBoxes[:cap(d.altBoxes)] {
					if box != nil {
						t.Fatalf("pooled DTx retains a box pointer at altBoxes[%d] (cap %d)", i, cap(d.altBoxes))
					}
				}
				for _, hooks := range [][]func(){d.onCommit[:cap(d.onCommit)], d.onAbort[:cap(d.onAbort)]} {
					for i, f := range hooks {
						if f != nil {
							t.Fatalf("pooled DTx retains a registered hook at [%d]", i)
						}
					}
				}
				if len(d.log)+len(d.altAddrs)+len(d.altBoxes)+len(d.onCommit)+len(d.onAbort) != 0 || d.err != nil {
					t.Errorf("pooled DTx is not reset: %d log, %d+%d saved, %d+%d hooks, err %v",
						len(d.log), len(d.altAddrs), len(d.altBoxes), len(d.onCommit), len(d.onAbort), d.err)
				}
				return
			}
		})
	}
}

func TestDTxIndexMatchesLinearScan(t *testing.T) {
	// The index against the obvious implementation, driven through every
	// path that logs a word — a read, a blind write, a read then a write, a
	// merged OrElse branch — across every table doubling, with addresses that
	// collide (multiples of a large power of two) as well as runs of
	// neighbours, and across a reset onto a table an earlier, larger
	// execution left full of dead slots. Each round lays a different kind of
	// entry at a given log position, so an entry built over a stale one
	// must set every field to pass.
	m, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	d := m.getDTx()
	linearScan := func(addr int) int {
		for i := range d.log {
			if d.log[i].addr == addr {
				return i
			}
		}
		return -1
	}
	addr := func(i int) int {
		if i%2 == 0 {
			return (i / 2) << 9 // stride 512: the same low bits throughout
		}
		return 1<<19 + i // a run of neighbours
	}
	for round, n := range []int{3000, 40, 700} {
		d.resetLog()
		d.epoch = m.eng.CommitEpoch()
		d.active = true
		var want []dEntry
		for i := 0; i < n; i++ {
			a := addr(i)
			if got := d.lookup(a); got != -1 {
				t.Fatalf("n=%d: lookup(%d) = %d before it was logged", n, a, got)
			}
			box := m.eng.StableLoadBox(a)
			v := uint64(i + 1)
			switch (i + round) % 4 {
			case 0:
				d.Read(a)
				want = append(want, dEntry{addr: a, box: box, read: true})
			case 1:
				d.Write(a, v)
				want = append(want, dEntry{addr: a, val: v, written: true})
			case 2:
				d.Read(a)
				d.Write(a, v)
				want = append(want, dEntry{addr: a, box: box, val: v, read: true, written: true})
			case 3:
				// The saved branch read a new word and every word logged
				// so far that i/2 names: a blind write there turns into a
				// validated one.
				b := addr(i / 2)
				d.altAddrs = append(d.altAddrs[:0], a, b)
				d.altBoxes = append(d.altBoxes[:0], box, m.eng.StableLoadBox(b))
				if !d.mergeAlt() {
					t.Fatalf("n=%d: mergeAlt found a stale read in a quiet memory", n)
				}
				want = append(want, dEntry{addr: a, box: box, read: true})
				if j := i / 2; j < i && !want[j].read {
					want[j].box, want[j].read = d.altBoxes[1], true
				}
			}
			for _, j := range []int{0, i / 2, i} {
				if got, oracle := d.lookup(addr(j)), linearScan(addr(j)); got != oracle || got != j {
					t.Fatalf("n=%d: after %d entries lookup(%d) = %d, linear scan %d, want %d", n, i+1, addr(j), got, oracle, j)
				}
			}
		}
		d.active = false
		d.altAddrs, d.altBoxes = d.altAddrs[:0], d.altBoxes[:0]
		if len(d.log) != n {
			t.Fatalf("n=%d: %d entries logged", n, len(d.log))
		}
		for i := range want {
			if got := d.log[i]; got != want[i] {
				t.Fatalf("n=%d: log[%d] = %+v, want %+v", n, i, got, want[i])
			}
			if got := d.lookup(addr(i)); got != i {
				t.Fatalf("n=%d: lookup(%d) = %d, want %d", n, addr(i), got, i)
			}
		}
		if got := d.lookup(1<<20 - 1); got != -1 {
			t.Fatalf("n=%d: lookup of an unlogged address = %d", n, got)
		}
		// The table in use is the smallest that holds the log at most half
		// full.
		if bits := max(dtxIdxMinBits, uint(bitsFor(2*n))); d.idxBits != bits {
			t.Errorf("n=%d: the index is 1<<%d slots, want 1<<%d", n, d.idxBits, bits)
		}
	}
}

// bitsFor returns the least b with 1<<b >= n.
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// TestCommitEpochEqualValueCommits pins how far a commit that changes no
// value steps the commit epoch, per engine. A dynamic commit that reads a
// word and writes the same value back steps once on ST, where every
// attempt with a read list steps before it validates, and not at all on
// TL2, which locks no word whose value stays and so never reaches its
// clock. A blind equal-value write steps neither engine.
func TestCommitEpochEqualValueCommits(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m, err := New(16, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.WriteAll([]int{2}, []uint64{7}); err != nil {
				t.Fatal(err)
			}
			box := m.eng.LoadBox(2)
			readWriteBack := uint64(0)
			if eng == ST {
				readWriteBack = 1
			}
			for _, tc := range []struct {
				name string
				f    func(tx *DTx) error
				want uint64
			}{
				{"read, write back", func(tx *DTx) error { tx.Write(2, tx.Read(2)); return nil }, readWriteBack},
				{"blind write of the value", func(tx *DTx) error { tx.Write(2, 7); return nil }, 0},
				{"blind write of 0 to a fresh word", func(tx *DTx) error { tx.Write(3, 0); return nil }, 0},
			} {
				e0 := m.eng.CommitEpoch()
				if err := m.Atomically(tc.f); err != nil {
					t.Fatal(err)
				}
				if got := m.eng.CommitEpoch() - e0; got != tc.want {
					t.Errorf("%s: epoch stepped %d, want %d", tc.name, got, tc.want)
				}
			}
			if m.eng.LoadBox(2) != box || m.eng.LoadBox(3) != nil {
				t.Error("an equal-value commit replaced a box")
			}
		})
	}
}
