package stm_test

// Engine-selection API tests plus the TL2 allocation pins: the TL2 engine
// must meet the exact zero-allocation contract the ST engine set (DESIGN.md
// §6), on the same hot paths, with contention telemetry on. alloc_test.go
// pins the default engine; these pin TL2 explicitly so a regression names
// the engine that caused it.

import (
	"strings"
	"sync"
	"testing"

	stm "github.com/stm-go/stm"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want stm.Engine
	}{
		{"st", stm.ST},
		{"tl2", stm.TL2},
		{"TL2", stm.TL2},
		{" st ", stm.ST},
	} {
		got, err := stm.ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
		}
	}
	_, err := stm.ParseEngine("bogus")
	if err == nil {
		t.Fatal("ParseEngine(bogus): want error")
	}
	for _, name := range stm.EngineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseEngine error %q does not list valid engine %q", err, name)
		}
	}
}

func TestEngineAccessor(t *testing.T) {
	for _, e := range stm.Engines() {
		m := mustNewEngine(t, 8, e)
		if got := m.Engine(); got != e {
			t.Errorf("Engine() = %v, want %v", got, e)
		}
	}
	if mustNew(t, 8).Engine() != stm.ST {
		t.Error("default engine is not ST")
	}
}

func TestEngineNamesRoundTrip(t *testing.T) {
	names := stm.EngineNames()
	kinds := stm.Engines()
	if len(names) != len(kinds) {
		t.Fatalf("EngineNames/Engines length mismatch: %d vs %d", len(names), len(kinds))
	}
	for i, name := range names {
		k, err := stm.ParseEngine(name)
		if err != nil || k != kinds[i] {
			t.Errorf("round trip %q: got %v, %v; want %v", name, k, err, kinds[i])
		}
		if kinds[i].String() != name {
			t.Errorf("kinds[%d].String() = %q, want %q", i, kinds[i].String(), name)
		}
	}
}

// TestAllocsTL2Atomically is the TL2 half of TestAllocsAtomicallyDynamic:
// a dynamic read-modify-write with a stable footprint stays allocation-free
// on the TL2 engine.
func TestAllocsTL2Atomically(t *testing.T) {
	m := mustNewEngine(t, 16, stm.TL2)
	counter, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := stm.Alloc(m, benchPointCodec{})
	if err != nil {
		t.Fatal(err)
	}
	rmw := func(tx *stm.DTx) error {
		x := stm.ReadVar(tx, counter)
		q := stm.ReadVar(tx, pt)
		stm.WriteVar(tx, counter, x+1)
		stm.WriteVar(tx, pt, benchPoint{q.X + x, q.Y - x})
		return nil
	}
	assertAllocs(t, "TL2/Atomically", 0, func() {
		if err := m.Atomically(rmw); err != nil {
			t.Fatal(err)
		}
	})
	if m.Stats().Commits == 0 {
		t.Error("telemetry disabled? no commits counted")
	}
}

// TestEngineConcurrentMix hammers every engine with the operations whose
// interleavings differ most between the protocols — single-word adds, CAS,
// a two-word Atomically RMW, and pure reads — and checks the commuting
// sums. It is the quick cross-engine smoke; the deep harnesses are the
// parameterized conservation and linearizability tests.
func TestEngineConcurrentMix(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) {
		const (
			workers = 6
			ops     = 2_000
			size    = 8
		)
		m := mustNewEngine(t, size, eng)
		words := make([]*stm.Var[uint64], size)
		for loc := range words {
			v, err := stm.VarAt(m, stm.Uint64(), loc)
			if err != nil {
				t.Fatal(err)
			}
			words[loc] = v
		}
		var wg sync.WaitGroup
		totals := make([]uint64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := uint64(w)*0x9e3779b97f4a7c15 + 1
				next := func(n int) int {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return int(rng % uint64(n))
				}
				var sum uint64
				dst := make([]uint64, size)
				addrs := make([]int, size)
				for i := range addrs {
					addrs[i] = i
				}
				for i := 0; i < ops; i++ {
					switch next(4) {
					case 0:
						delta := uint64(next(10) + 1)
						addWord(m, next(size), delta)
						sum += delta
					case 1:
						loc := next(size)
						v := m.Peek(loc)
						words[loc].CompareAndSwap(v, v)
					case 2:
						delta := uint64(next(10) + 1)
						a, b := next(size), next(size)
						if err := m.Atomically(func(tx *stm.DTx) error {
							tx.Write(a, tx.Read(a)+delta)
							tx.Write(b, tx.Read(b)+delta)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
						sum += 2 * delta // a == b reads its own write: +2·delta all the same
					default:
						if err := m.ReadAllInto(addrs, dst); err != nil {
							t.Error(err)
							return
						}
					}
				}
				totals[w] = sum
			}(w)
		}
		wg.Wait()
		var want uint64
		for _, s := range totals {
			want += s
		}
		var got uint64
		for i := 0; i < size; i++ {
			got += m.Peek(i)
		}
		if got != want {
			t.Errorf("engine %v: sum = %d, want %d", eng, got, want)
		}
		st := m.Stats()
		if st.Attempts != st.Commits+st.Failures {
			t.Errorf("engine %v: attempts=%d != commits=%d + failures=%d", eng, st.Attempts, st.Commits, st.Failures)
		}
	})
}
