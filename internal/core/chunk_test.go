package core

// A Memory's words are built a chunk at a time, on the first write to any
// word of the chunk (memory.go, DESIGN.md §2). These tests pin that loads
// build nothing, that racing first writes to one chunk both land, and that
// the last chunk holds only the words left over.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func mustMemoryEngine(t *testing.T, size int, kind EngineKind) *Memory {
	t.Helper()
	m, err := NewMemoryEngine(size, kind)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChunkReadsBuildNothing(t *testing.T) {
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := mustMemoryEngine(t, 3*chunkWords+16, kind)
			for _, loc := range []int{0, 7, chunkWords - 1, chunkWords, 2*chunkWords + 5, m.Size() - 1} {
				if v, box := m.Peek(loc), m.LoadBox(loc); v != 0 || box != nil {
					t.Fatalf("word %d: Peek %d, LoadBox %p; want 0 and nil", loc, v, box)
				}
				if box := m.StableLoadBox(loc); box != nil {
					t.Fatalf("word %d: StableLoadBox %p, want nil", loc, box)
				}
				if o, c := m.Owner(loc), m.ConflictCount(loc); o != nil || c != 0 {
					t.Fatalf("word %d: owner %p, %d conflicts; want none", loc, o, c)
				}
			}
			m.ResetStats()
			_ = m.DebugString()
			if n := m.builtChunks(); n != 0 {
				t.Fatalf("%d chunks built by loads, want 0", n)
			}

			if kind == EngineTL2 {
				// A static attempt whose calc changes nothing reads its data
				// set and locks none of it.
				old, ok := tryOnce(m, []int{5, chunkWords + 1}, func(o []uint64) []uint64 { return o })
				if !ok || old[0] != 0 || old[1] != 0 {
					t.Fatalf("pure-read attempt: ok=%v old=%v, want true [0 0]", ok, old)
				}
				if n := m.builtChunks(); n != 0 {
					t.Fatalf("%d chunks built by a pure-read TL2 attempt, want 0", n)
				}
			}

			// A read list over unbuilt words, validated by loads (ST's
			// readPass, TL2's checkReads) because a commit moved the epoch
			// after its sample: it passes, and only written chunks are built.
			sample := m.CommitEpoch()
			retry(t, m, []int{3*chunkWords + 2}, addFunc(1)) // builds chunk 3
			rec := armedRec(m, []int{2 * chunkWords}, func([]uint64) []uint64 { return []uint64{9} })
			rec.SetReadSet([]int{7, chunkWords + 3}, []uint64{0, 0}, sample)
			if !m.RunAttempt(rec, rec.calc, nil) {
				t.Fatal("a commit whose read list of unbuilt words still reads 0 failed")
			}
			if n := m.builtChunks(); n != 2 || m.builtChunk(0) != nil || m.builtChunk(1) != nil {
				t.Fatalf("%d chunks built (0: %v, 1: %v), want 2: the written chunks 2 and 3",
					n, m.builtChunk(0) != nil, m.builtChunk(1) != nil)
			}
			if got := m.Peek(2 * chunkWords); got != 9 {
				t.Fatalf("word %d = %d, want 9", 2*chunkWords, got)
			}
		})
	}
}

func TestChunkFirstWritesRace(t *testing.T) {
	// Two goroutines make the first writes to two words of one chunk at
	// the same instant, so both find the slot nil and build the chunk; the
	// publication CAS leaves one chunk, which must hold both values.
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for _, kind := range EngineKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				m := mustMemoryEngine(t, 2*chunkWords, kind)
				locs := [2]int{chunkWords + 1, 2*chunkWords - 2}
				var ready atomic.Int32
				var wg sync.WaitGroup
				for g, loc := range locs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ready.Add(1)
						for ready.Load() < 2 {
							runtime.Gosched()
						}
						set := func([]uint64) []uint64 { return []uint64{uint64(g + 1)} }
						for {
							if _, ok := tryOnce(m, []int{loc}, set); ok {
								return
							}
						}
					}()
				}
				wg.Wait()
				for g, loc := range locs {
					if got := m.Peek(loc); got != uint64(g+1) {
						t.Fatalf("round %d: word %d = %d, want %d: a first write was lost", r, loc, got, g+1)
					}
				}
				if n := m.builtChunks(); n != 1 {
					t.Fatalf("round %d: %d chunks built, want 1", r, n)
				}
			}
		})
	}
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var wordsSink []word

func TestChunkTailHoldsOnlyRemainder(t *testing.T) {
	// The first write to the last chunk allocates the words left over, not
	// a whole chunk: 16 words of a 16-word Memory, 16 of chunkWords+16. The
	// bound is what the heap charges for a 16-word slice, its allocation
	// header and size-class rounding included.
	const tail = 16
	limit := allocBytes(func() { wordsSink = make([]word, tail) })
	for _, size := range []int{tail, chunkWords + tail} {
		m := mustMemoryEngine(t, size, EngineST)
		if got := allocBytes(func() { m.word(size - 1) }); got > limit {
			t.Errorf("size %d: building the last chunk allocated %d B, want ≤ %d (%d words)", size, got, limit, tail)
		}
		if n := len(m.builtChunk((size - 1) >> chunkShift)); n != tail {
			t.Errorf("size %d: the last chunk holds %d words, want %d", size, n, tail)
		}
	}
}
