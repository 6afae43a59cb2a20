package stm_test

// Tests for the typed layer: codec round-trips, the word allocator, Var
// semantics, and a conservation property test (typed bank transfers over
// mixed int64/struct vars in Atomically) designed to run under -race.

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	stm "github.com/stm-go/stm"
)

// point is the test struct codec: two int64 fields in two words.
type point struct{ X, Y int64 }

type pointCodec struct{}

func (pointCodec) Words() int { return 2 }
func (pointCodec) Encode(p point, dst []uint64) {
	dst[0], dst[1] = uint64(p.X), uint64(p.Y)
}
func (pointCodec) Decode(src []uint64) point {
	return point{X: int64(src[0]), Y: int64(src[1])}
}

func roundTrip[T comparable](t *testing.T, c stm.Codec[T], vals []T) {
	t.Helper()
	buf := make([]uint64, c.Words())
	for _, v := range vals {
		c.Encode(v, buf)
		if got := c.Decode(buf); got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestCodecRoundTrips(t *testing.T) {
	roundTrip(t, stm.Int64(), []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64})
	roundTrip(t, stm.Uint64(), []uint64{0, 1, math.MaxUint64})
	roundTrip(t, stm.Bool(), []bool{true, false})
	roundTrip(t, stm.Float64(), []float64{
		0, math.Copysign(0, -1), 1.5, -1.5,
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	})
	roundTrip(t, pointCodec{}, []point{{}, {1, -2}, {math.MinInt64, math.MaxInt64}})
}

func TestCodecFloat64NegativeZero(t *testing.T) {
	// -0 must round-trip bit-exactly, not collapse to +0 (== can't tell).
	c := stm.Float64()
	buf := make([]uint64, 1)
	c.Encode(math.Copysign(0, -1), buf)
	if got := c.Decode(buf); math.Signbit(got) != true || got != 0 {
		t.Errorf("-0 round trip lost the sign bit: got %v (signbit %v)", got, math.Signbit(got))
	}
}

func TestCodecString(t *testing.T) {
	c := stm.String(16)
	if got := c.Words(); got != 3 { // 1 length word + ceil(16/8)
		t.Fatalf("String(16).Words() = %d, want 3", got)
	}
	roundTrip(t, c, []string{"", "a", "hello", "exactly16bytes!!", "héllo wörld"})

	// Over-long strings are canonicalized by truncation, and the
	// canonical form round-trips.
	buf := make([]uint64, c.Words())
	long := strings.Repeat("x", 40)
	c.Encode(long, buf)
	if got := c.Decode(buf); got != long[:16] {
		t.Errorf("over-long encode = %q, want %q", got, long[:16])
	}

	// A corrupted length word (raw writes bypassing the codec) must not
	// make Decode read out of range — including lengths that go negative
	// when truncated to int (Decode must stay total: it runs inside
	// transactions, where a panic can take a helper down).
	buf[0] = 1 << 40
	if got := c.Decode(buf); len(got) != 16 {
		t.Errorf("corrupted length decode has len %d, want clamped 16", len(got))
	}
	buf[0] = 1 << 63
	if got := c.Decode(buf); len(got) != 16 {
		t.Errorf("negative length decode has len %d, want clamped 16", len(got))
	}
}

func TestAllocPlacesDisjointAlignedVars(t *testing.T) {
	m := mustNew(t, 64)
	a, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.Alloc(m, pointCodec{}) // 2 words: base must be 2-aligned
	if err != nil {
		t.Fatal(err)
	}
	b, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	if p.Base()%2 != 0 {
		t.Errorf("2-word var base %d not 2-aligned", p.Base())
	}
	ranges := [][2]int{
		{a.Base(), a.Base() + a.Words()},
		{p.Base(), p.Base() + p.Words()},
		{b.Base(), b.Base() + b.Words()},
	}
	for i := range ranges {
		for j := i + 1; j < len(ranges); j++ {
			if ranges[i][0] < ranges[j][1] && ranges[j][0] < ranges[i][1] {
				t.Errorf("vars overlap: %v and %v", ranges[i], ranges[j])
			}
		}
	}
	if got, max := m.WordsAllocated(), m.Size(); got > max {
		t.Errorf("WordsAllocated() = %d > size %d", got, max)
	}
}

func TestAllocOutOfWords(t *testing.T) {
	m := mustNew(t, 2)
	if _, err := stm.Alloc(m, stm.Int64()); err != nil {
		t.Fatal(err)
	}
	if _, err := stm.Alloc(m, pointCodec{}); !errors.Is(err, stm.ErrOutOfWords) {
		t.Errorf("exhausted Alloc err = %v, want ErrOutOfWords", err)
	}
}

func TestVarLoadStoreUpdate(t *testing.T) {
	m := mustNew(t, 16)
	v, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Load(); got != 0 {
		t.Errorf("fresh Load() = %d, want 0", got)
	}
	v.Store(-7)
	if got := v.Load(); got != -7 {
		t.Errorf("Load() = %d, want -7", got)
	}
	if old := v.Update(func(x int64) int64 { return x * 3 }); old != -7 {
		t.Errorf("Update old = %d, want -7", old)
	}
	if got := v.Load(); got != -21 {
		t.Errorf("after Update, Load() = %d, want -21", got)
	}

	p, err := stm.Alloc(m, pointCodec{})
	if err != nil {
		t.Fatal(err)
	}
	p.Store(point{3, 4})
	if got := p.Load(); got != (point{3, 4}) {
		t.Errorf("struct Load() = %v, want {3 4}", got)
	}
	p.Update(func(q point) point { return point{q.Y, q.X} })
	if got := p.Load(); got != (point{4, 3}) {
		t.Errorf("after swap Update, Load() = %v, want {4 3}", got)
	}
}

func TestVarCompareAndSwap(t *testing.T) {
	m := mustNew(t, 16)
	v, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	v.Store(10)
	if v.CompareAndSwap(9, 20) {
		t.Error("CAS with wrong old value succeeded")
	}
	if got := v.Load(); got != 10 {
		t.Errorf("failed CAS changed the value to %d", got)
	}
	if !v.CompareAndSwap(10, 20) {
		t.Error("CAS with matching old value failed")
	}
	if got := v.Load(); got != 20 {
		t.Errorf("Load = %d after CAS, want 20", got)
	}

	// Multi-word vars compare every word of the encoding: the swap is
	// atomic across the whole encoding, or nothing changes.
	p, err := stm.Alloc(m, pointCodec{})
	if err != nil {
		t.Fatal(err)
	}
	p.Store(point{1, 2})
	if p.CompareAndSwap(point{1, 3}, point{9, 9}) {
		t.Error("struct CAS with one mismatched word succeeded")
	}
	if got := p.Load(); got != (point{1, 2}) {
		t.Errorf("failed struct CAS changed the value to %+v", got)
	}
	if !p.CompareAndSwap(point{1, 2}, point{3, 4}) {
		t.Error("struct CAS with matching value failed")
	}
	if got := p.Load(); got != (point{3, 4}) {
		t.Errorf("Load = %+v after struct CAS, want {3 4}", got)
	}

	// Equality is on encoded words: the String codec canonicalizes by
	// truncation, so an over-long expected value matches its truncation.
	s, err := stm.Alloc(m, stm.String(4))
	if err != nil {
		t.Fatal(err)
	}
	s.Store("abcdef") // stored as "abcd"
	if !s.CompareAndSwap("abcdXYZ", "ok") {
		t.Error("string CAS did not compare in canonical (truncated) form")
	}
	if got := s.Load(); got != "ok" {
		t.Errorf("Load = %q after string CAS, want \"ok\"", got)
	}
}

func TestVarCompareAndSwapConcurrentCounter(t *testing.T) {
	// A typed CAS loop is a correct counter when goroutines contend.
	const (
		workers = 4
		perW    = 500
	)
	m := mustNew(t, 8)
	v, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				for {
					old := v.Load()
					if v.CompareAndSwap(old, old+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := v.Load(); got != workers*perW {
		t.Errorf("counter = %d, want %d", got, workers*perW)
	}
}

func TestVarAtRawInterop(t *testing.T) {
	// A VarAt over hand-addressed words sees raw writes and vice versa.
	m := mustNew(t, 8)
	v, err := stm.VarAt(m, stm.Int64(), 5)
	if err != nil {
		t.Fatal(err)
	}
	swapWord(m, 5, 99)
	if got := v.Load(); got != 99 {
		t.Errorf("Load() = %d, want raw-written 99", got)
	}
	v.Store(-1)
	if got := m.Peek(5); got != uint64(0xFFFFFFFFFFFFFFFF) {
		t.Errorf("Peek(5) = %#x, want all-ones (int64 -1)", got)
	}
	if _, err := stm.VarAt(m, stm.Int64(), 8); !errors.Is(err, stm.ErrAddrRange) {
		t.Errorf("out-of-range VarAt err = %v, want ErrAddrRange", err)
	}
}

// TestTypedTransfersConserveTotal is the typed bank-account property test,
// meant to run under -race: concurrent transfers between int64 account
// vars and a struct vault var must conserve the combined total, while a
// concurrent auditor reads all vars in one Atomically and checks the
// invariant at every linearization point it observes.
func TestTypedTransfersConserveTotal(t *testing.T) {
	forEachEngine(t, testTypedTransfersConserveTotal)
}

func testTypedTransfersConserveTotal(t *testing.T, eng stm.Engine) {
	const (
		accounts  = 6
		initial   = 1_000
		transfers = 1_500
		workers   = 4
	)
	m := mustNewEngine(t, 64, eng)
	accs := make([]*stm.Var[int64], accounts)
	for i := range accs {
		v, err := stm.Alloc(m, stm.Int64())
		if err != nil {
			t.Fatal(err)
		}
		v.Store(initial)
		accs[i] = v
	}
	vaultVar, err := stm.Alloc(m, pointCodec{}) // X = balance, Y = deposit count
	if err != nil {
		t.Fatal(err)
	}
	vaultVar.Store(point{X: initial})
	want := int64((accounts + 1) * initial)

	stop := make(chan struct{})
	auditErr := make(chan error, 1)
	go func() {
		// Auditor: one read-only transaction over every var, which commits
		// where its last read was admitted.
		var sum int64
		audit := func(tx *stm.DTx) error {
			sum = stm.ReadVar(tx, vaultVar).X
			for _, v := range accs {
				sum += stm.ReadVar(tx, v)
			}
			return nil
		}
		for {
			select {
			case <-stop:
				auditErr <- nil
				return
			default:
			}
			if err := m.Atomically(audit); err != nil {
				auditErr <- err
				return
			}
			if sum != want {
				auditErr <- errors.New("audit: snapshot total off")
				return
			}
		}
	}()

	var wg sync.WaitGroup
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
			for i := 0; i < transfers; i++ {
				amt := int64(next(20) + 1)
				a := accs[next(accounts)]
				if next(3) == 0 {
					// Deposit into the struct vault.
					if err := m.Atomically(func(tx *stm.DTx) error {
						v := stm.ReadVar(tx, vaultVar)
						stm.WriteVar(tx, a, stm.ReadVar(tx, a)-amt)
						stm.WriteVar(tx, vaultVar, point{v.X + amt, v.Y + 1})
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				b := accs[next(accounts)]
				if a == b {
					b = accs[(next(accounts)+1)%accounts]
					if a == b {
						continue
					}
				}
				if err := m.Atomically(func(tx *stm.DTx) error {
					stm.WriteVar(tx, a, stm.ReadVar(tx, a)-amt)
					stm.WriteVar(tx, b, stm.ReadVar(tx, b)+amt)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-auditErr; err != nil {
		t.Fatal(err)
	}

	var sum int64
	for _, v := range accs {
		sum += v.Load()
	}
	final := vaultVar.Load()
	sum += final.X
	if sum != want {
		t.Errorf("total = %d, want %d", sum, want)
	}
	if final.Y == 0 {
		t.Log("no vault deposits happened; rng unlucky but legal")
	}
}
