package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustMemory(t *testing.T, size int) *Memory {
	t.Helper()
	m, err := NewMemory(size)
	if err != nil {
		t.Fatalf("NewMemory(%d): %v", size, err)
	}
	return m
}

// addFunc returns an updateFunc adding delta to every word of the data set.
func addFunc(delta uint64) updateFunc {
	return func(old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		for i, v := range old {
			nv[i] = v + delta
		}
		return nv
	}
}

// retry runs attempts until one succeeds, returning the old values.
func retry(t *testing.T, m *Memory, addrs []int, f updateFunc) []uint64 {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		old, ok := tryOnce(m, addrs, f)
		if ok {
			return old
		}
	}
	t.Fatalf("transaction on %v did not commit in 1e6 attempts", addrs)
	return nil
}

func TestNewMemory(t *testing.T) {
	tests := []struct {
		name    string
		size    int
		wantErr bool
	}{
		{name: "one word", size: 1},
		{name: "many words", size: 4096},
		{name: "zero", size: 0, wantErr: true},
		{name: "negative", size: -3, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := NewMemory(tt.size)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("NewMemory(%d): want error, got nil", tt.size)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewMemory(%d): %v", tt.size, err)
			}
			if got := m.Size(); got != tt.size {
				t.Errorf("Size() = %d, want %d", got, tt.size)
			}
			for i := 0; i < tt.size; i++ {
				if v := m.Peek(i); v != 0 {
					t.Errorf("Peek(%d) = %d, want 0", i, v)
				}
			}
		})
	}
}

// TestNewMemoryCellsNil pins construction: no per-word store, so every
// cell is nil, every word's first box, and reads as 0.
func TestNewMemoryCellsNil(t *testing.T) {
	for _, kind := range EngineKinds() {
		m, err := NewMemoryEngine(4096, kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Size() {
			if box := m.LoadBox(i); box != nil {
				t.Fatalf("%v: word %d starts with box %p (value %d), want nil", kind, i, box, *box)
			}
		}
		if got := BoxVal(nil); got != 0 {
			t.Fatalf("BoxVal(nil) = %d, want 0", got)
		}
	}
}

func TestValidateDataSet(t *testing.T) {
	m := mustMemory(t, 10)
	tests := []struct {
		name  string
		addrs []int
		want  error
	}{
		{name: "single", addrs: []int{0}},
		{name: "ascending", addrs: []int{0, 3, 9}},
		{name: "empty", addrs: nil, want: ErrEmptyDataSet},
		{name: "duplicate", addrs: []int{1, 1}, want: ErrDupAddr},
		{name: "descending", addrs: []int{5, 2}, want: ErrAddrOrder},
		{name: "negative", addrs: []int{-1}, want: ErrAddrRange},
		{name: "too large", addrs: []int{10}, want: ErrAddrRange},
		{name: "mixed bad tail", addrs: []int{0, 4, 11}, want: ErrAddrRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := m.ValidateDataSet(tt.addrs)
			if tt.want == nil {
				if err != nil {
					t.Fatalf("ValidateDataSet(%v) = %v, want nil", tt.addrs, err)
				}
				return
			}
			if !errors.Is(err, tt.want) {
				t.Fatalf("ValidateDataSet(%v) = %v, want %v", tt.addrs, err, tt.want)
			}
		})
	}
}

func TestDupAddrSentinels(t *testing.T) {
	m := mustMemory(t, 10)
	err := m.ValidateDataSet([]int{2, 2})
	if !errors.Is(err, ErrDupAddr) {
		t.Errorf("duplicate: err = %v, want ErrDupAddr", err)
	}
	// The deprecated compatibility match (duplicates used to be reported
	// as ordering errors) ended with its one-release window: a duplicate
	// no longer matches ErrAddrOrder.
	if errors.Is(err, ErrAddrOrder) {
		t.Errorf("duplicate: err = %v must no longer match ErrAddrOrder (compat window over)", err)
	}
	// The reverse does not hold: a pure ordering error is not a duplicate.
	if err := m.ValidateDataSet([]int{5, 2}); errors.Is(err, ErrDupAddr) {
		t.Errorf("descending: err = %v must not match ErrDupAddr", err)
	}
}

func TestSingleWordUpdate(t *testing.T) {
	m := mustMemory(t, 3)
	old := retry(t, m, []int{1}, addFunc(7))
	if old[0] != 0 {
		t.Errorf("old value = %d, want 0", old[0])
	}
	if got := m.Peek(1); got != 7 {
		t.Errorf("Peek(1) = %d, want 7", got)
	}
	if got := m.Peek(0); got != 0 {
		t.Errorf("Peek(0) = %d, want 0 (untouched)", got)
	}
}

func TestMultiWordSwap(t *testing.T) {
	m := mustMemory(t, 4)
	retry(t, m, []int{0}, func(old []uint64) []uint64 { return []uint64{11} })
	retry(t, m, []int{3}, func(old []uint64) []uint64 { return []uint64{22} })

	swap := func(old []uint64) []uint64 { return []uint64{old[1], old[0]} }
	old := retry(t, m, []int{0, 3}, swap)
	if old[0] != 11 || old[1] != 22 {
		t.Errorf("old = %v, want [11 22]", old)
	}
	if a, b := m.Peek(0), m.Peek(3); a != 22 || b != 11 {
		t.Errorf("after swap: (%d, %d), want (22, 11)", a, b)
	}
}

func TestOldValuesAreSnapshot(t *testing.T) {
	// The old values returned on success must be the exact values the new
	// values were computed from.
	m := mustMemory(t, 2)
	retry(t, m, []int{0, 1}, func(old []uint64) []uint64 { return []uint64{100, 200} })
	old := retry(t, m, []int{0, 1}, func(old []uint64) []uint64 {
		return []uint64{old[0] + old[1], old[1]}
	})
	if old[0] != 100 || old[1] != 200 {
		t.Fatalf("old = %v, want [100 200]", old)
	}
	if got := m.Peek(0); got != 300 {
		t.Errorf("Peek(0) = %d, want 300", got)
	}
}

func TestConcurrentCounter(t *testing.T) {
	const (
		goroutines = 8
		increments = 2000
	)
	m := mustMemory(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				for {
					if _, ok := tryOnce(m, []int{0}, addFunc(1)); ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := m.Peek(0), uint64(goroutines*increments); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	st := m.Stats()
	if st.Commits != goroutines*increments {
		t.Errorf("commits = %d, want %d", st.Commits, goroutines*increments)
	}
	if st.Attempts != st.Commits+st.Failures {
		t.Errorf("attempts=%d != commits=%d + failures=%d", st.Attempts, st.Commits, st.Failures)
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	// Random two-account transfers must conserve the bank total, and every
	// successful read snapshot must observe the invariant — multi-word
	// atomicity end to end.
	//
	// The retry loops back off on failure: the protocol is non-blocking but
	// not wait-free, so a writer hammering without backoff can starve
	// behind full-memory snapshot readers indefinitely (the system-wide
	// progress is then all reader commits). This mirrors the public API,
	// whose Run path always backs off between attempts.
	const (
		accounts  = 16
		initial   = 1000
		transfers = 3000
		readers   = 2
		writers   = 6
	)
	m := mustMemory(t, accounts)
	for i := 0; i < accounts; i++ {
		retry(t, m, []int{i}, func([]uint64) []uint64 { return []uint64{initial} })
	}

	allAddrs := make([]int, accounts)
	for i := range allAddrs {
		allAddrs[i] = i
	}
	identity := func(old []uint64) []uint64 {
		nv := make([]uint64, len(old))
		copy(nv, old)
		return nv
	}

	var writerWG, readerWG sync.WaitGroup
	badSnapshots := make(chan string, readers)
	stopReaders := make(chan struct{})

	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			sleep := time.Microsecond
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				old, ok := tryOnce(m, allAddrs, identity)
				if !ok {
					time.Sleep(sleep)
					if sleep < 256*time.Microsecond {
						sleep *= 2
					}
					continue
				}
				sleep = time.Microsecond
				var sum uint64
				for _, v := range old {
					sum += v
				}
				if sum != accounts*initial {
					select {
					case badSnapshots <- fmt.Sprintf("snapshot sum = %d, want %d", sum, accounts*initial):
					default:
					}
					return
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed uint64) {
			defer writerWG.Done()
			rng := seed
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < transfers; i++ {
				a, b := next(accounts), next(accounts)
				if a == b {
					continue
				}
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				amount := uint64(next(5))
				// Transfer from lo to hi (unsigned-safe: bounded by balance).
				f := func(old []uint64) []uint64 {
					amt := amount
					if old[0] < amt {
						amt = old[0]
					}
					return []uint64{old[0] - amt, old[1] + amt}
				}
				sleep := time.Microsecond
				for {
					if _, ok := tryOnce(m, []int{lo, hi}, f); ok {
						break
					}
					time.Sleep(sleep)
					if sleep < 256*time.Microsecond {
						sleep *= 2
					}
				}
			}
		}(uint64(w)*2654435761 + 1)
	}

	writerWG.Wait()
	close(stopReaders)
	readerWG.Wait()
	select {
	case msg := <-badSnapshots:
		t.Fatal(msg)
	default:
	}

	var sum uint64
	for i := 0; i < accounts; i++ {
		sum += m.Peek(i)
	}
	if sum != accounts*initial {
		t.Errorf("final total = %d, want %d", sum, accounts*initial)
	}
}

func TestFailureAndHelpCompleteStalledTransaction(t *testing.T) {
	// Simulate a transaction whose initiator stalled after acquiring the
	// first word of its data set, then verify a conflicting transaction
	// (1) fails, (2) helps the stalled transaction to completion, and
	// (3) succeeds on retry — the paper's cooperative-method guarantee.
	m := mustMemory(t, 8)
	retry(t, m, []int{2}, func([]uint64) []uint64 { return []uint64{10} })
	retry(t, m, []int{5}, func([]uint64) []uint64 { return []uint64{20} })

	stalled := armedRec(m, []int{2, 5}, addFunc(100))
	stalled.stable.Store(true)
	if !m.word(2).owner.CompareAndSwap(nil, stalled) {
		t.Fatal("could not install stalled owner")
	}

	// First attempt must fail (word 2 is owned) and help `stalled` finish.
	_, ok := tryOnce(m, []int{2}, addFunc(1))
	if ok {
		t.Fatal("conflicting attempt unexpectedly succeeded")
	}
	if !stalled.Succeeded() {
		t.Fatal("stalled transaction was not helped to completion")
	}
	if got := m.Peek(2); got != 110 {
		t.Errorf("Peek(2) = %d, want 110 (stalled tx applied)", got)
	}
	if got := m.Peek(5); got != 120 {
		t.Errorf("Peek(5) = %d, want 120 (stalled tx applied)", got)
	}
	if m.Owner(2) != nil || m.Owner(5) != nil {
		t.Error("ownerships not released by helper")
	}

	// Retry must now succeed.
	old := retry(t, m, []int{2}, addFunc(1))
	if old[0] != 110 {
		t.Errorf("retry old = %d, want 110", old[0])
	}
	if got := m.Peek(2); got != 111 {
		t.Errorf("Peek(2) = %d, want 111", got)
	}
	if st := m.Stats(); st.Helps == 0 {
		t.Error("stats recorded no helps")
	}
}

func TestHelpingDecidedRecordHealsOwnership(t *testing.T) {
	// A decided record left owning a word (the paper's benign stale-acquire
	// window) must be healed by the next conflicting transaction.
	m := mustMemory(t, 4)
	done := armedRec(m, []int{1}, addFunc(0))
	done.stable.Store(true)
	done.status.Store(statusSuccess)
	done.old[0].Store(zeroOld) // word 1 was never written: nil agrees as the sentinel
	done.allWritten.Store(true)
	if !m.word(1).owner.CompareAndSwap(nil, done) {
		t.Fatal("could not install decided owner")
	}

	old := retry(t, m, []int{1}, addFunc(3))
	if old[0] != 0 {
		t.Errorf("old = %d, want 0", old[0])
	}
	if got := m.Peek(1); got != 3 {
		t.Errorf("Peek(1) = %d, want 3", got)
	}
	if m.Owner(1) != nil {
		t.Error("decided record still owns the word")
	}
}

func TestFailedIndexReporting(t *testing.T) {
	m := mustMemory(t, 6)
	blocker := armedRec(m, []int{4}, addFunc(0))
	// Deliberately unstable so the conflicting transaction does not help it
	// and the ownership stays in place for inspection.
	if !m.word(4).owner.CompareAndSwap(nil, blocker) {
		t.Fatal("could not install blocker")
	}
	rec := armedRec(m, []int{0, 4}, addFunc(1))
	rec.stable.Store(true)
	m.transaction(rec, true)
	rec.stable.Store(false)
	if rec.Succeeded() {
		t.Fatal("transaction should have failed")
	}
	idx, failed := rec.FailedIndex()
	if !failed || idx != 1 {
		t.Errorf("FailedIndex() = (%d, %v), want (1, true)", idx, failed)
	}
	if m.Owner(0) != nil {
		t.Error("word 0 not released after failure")
	}
	m.word(4).owner.CompareAndSwap(blocker, nil)
}

func TestStatusEncoding(t *testing.T) {
	for _, idx := range []int{0, 1, 7, 1 << 20} {
		st := failureAt(idx)
		if !isFailure(st) {
			t.Errorf("failureAt(%d) not recognized as failure", idx)
		}
		if got := failureIndex(st); got != idx {
			t.Errorf("failureIndex(failureAt(%d)) = %d", idx, got)
		}
	}
	if isFailure(statusNull) || isFailure(statusSuccess) {
		t.Error("Null/Success misclassified as failure")
	}
}

func TestDisjointTransactionsDoNotConflict(t *testing.T) {
	const pairs = 4
	m := mustMemory(t, pairs*2)
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			addrs := []int{2 * p, 2*p + 1}
			for i := 0; i < 1000; i++ {
				for {
					if _, ok := tryOnce(m, addrs, addFunc(1)); ok {
						break
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for i := 0; i < pairs*2; i++ {
		if got := m.Peek(i); got != 1000 {
			t.Errorf("Peek(%d) = %d, want 1000", i, got)
		}
	}
	// Disjoint data sets must produce zero failures.
	if st := m.Stats(); st.Failures != 0 {
		t.Errorf("failures = %d, want 0 for disjoint data sets", st.Failures)
	}
}
