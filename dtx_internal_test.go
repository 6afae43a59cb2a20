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
			m, err := New(big+1, WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			// sync.Pool may drop a handle (under the race detector it does so
			// at random), so go round again until the grown one comes back.
			for try := 0; ; try++ {
				if try == 50 {
					t.Fatal("the pool never handed the grown handle back")
				}
				// The big operation ends small: its first round logs big reads
				// in a first branch that retries, a foreign commit lands and
				// the second branch's next new read finds the log stale, and
				// the round that commits touches small words — so what is left
				// behind beyond the final lengths is for the high-water mark
				// to find.
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
							tx.Read(big)
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
				for _, hooks := range [][]func(){d.onCommit[:cap(d.onCommit)], d.onAbort[:cap(d.onAbort)]} {
					for i, f := range hooks {
						if f != nil {
							t.Fatalf("pooled DTx retains a registered hook at [%d]", i)
						}
					}
				}
				if len(d.log)+len(d.onCommit)+len(d.onAbort) != 0 || d.err != nil {
					t.Errorf("pooled DTx is not reset: %d log, %d+%d hooks, err %v",
						len(d.log), len(d.onCommit), len(d.onAbort), d.err)
				}
				return
			}
		})
	}
}

func TestDTxIndexMatchesLinearScan(t *testing.T) {
	// The index against the obvious implementation, driven through every
	// path that logs a word — a read, a blind write, a read then a write —
	// across every table doubling, with addresses that collide (multiples of
	// a large power of two) as well as runs of neighbours, across a reset
	// onto a table an earlier, larger execution left full of dead slots, and
	// across keepReads (an OrElse falling through), which compacts the mixed
	// log to its reads and reindexes it before more words are logged. Each
	// round lays a different kind of entry at a given log position, so an
	// entry built over a stale one must set every field to pass.
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
		// logWords logs addr(i) for i in [from, to) and checks the index
		// against the scan as it goes.
		logWords := func(from, to int) {
			for i := from; i < to; i++ {
				a := addr(i)
				if got := d.lookup(a); got != -1 {
					t.Fatalf("n=%d: lookup(%d) = %d before it was logged", n, a, got)
				}
				box := m.eng.StableLoadBox(a)
				v := uint64(i + 1)
				switch (i + round) % 3 {
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
				}
				for _, a := range []int{want[0].addr, want[len(want)/2].addr, a} {
					if got, oracle := d.lookup(a), linearScan(a); got != oracle || got < 0 {
						t.Fatalf("n=%d: after %d entries lookup(%d) = %d, linear scan %d", n, len(want), a, got, oracle)
					}
				}
			}
		}
		checkLog := func(stage string) {
			if len(d.log) != len(want) {
				t.Fatalf("n=%d %s: %d entries logged, want %d", n, stage, len(d.log), len(want))
			}
			for i := range want {
				if got := d.log[i]; got != want[i] {
					t.Fatalf("n=%d %s: log[%d] = %+v, want %+v", n, stage, i, got, want[i])
				}
				if got := d.lookup(want[i].addr); got != i {
					t.Fatalf("n=%d %s: lookup(%d) = %d, want %d", n, stage, want[i].addr, got, i)
				}
			}
			if got := d.lookup(1<<20 - 1); got != -1 {
				t.Fatalf("n=%d %s: lookup of an unlogged address = %d", n, stage, got)
			}
			// The table in use is the smallest that holds the log at most
			// half full.
			if bits := max(dtxIdxMinBits, uint(bitsFor(2*len(d.log)))); stage != "kept" && d.idxBits != bits {
				t.Errorf("n=%d %s: the index is 1<<%d slots, want 1<<%d", n, stage, d.idxBits, bits)
			}
		}
		logWords(0, n)
		checkLog("logged")

		// The reads stay, at what they read; the writes die, blind ones
		// leaving the log.
		kept := want[:0]
		var dropped []int
		for _, e := range want {
			if !e.read {
				dropped = append(dropped, e.addr)
				continue
			}
			e.val, e.written = e.rval, false
			kept = append(kept, e)
		}
		want = kept
		d.keepReads()
		if d.wrote {
			t.Fatalf("n=%d: keepReads left the log marked written", n)
		}
		checkLog("kept")
		for _, a := range dropped {
			if got, oracle := d.lookup(a), linearScan(a); got != -1 || oracle != -1 {
				t.Fatalf("n=%d: a dropped blind write is still found: lookup(%d) = %d, linear scan %d", n, a, got, oracle)
			}
		}
		logWords(n, n+n/4)
		checkLog("continued")
		d.active = false
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
