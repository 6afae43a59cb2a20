package stmds_test

// Linearizability harness for the public structures: many short
// randomized concurrent histories checked against
// sequential specifications with the Wing & Gong search in internal/lin.
// Short windows keep the exponential checker fast while still exposing
// ordering violations with high probability; the conservation tests in
// map_test.go/queue_test.go cover the long-history side.

import (
	"sync"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/lin"
	"github.com/stm-go/stm/internal/simrand"
	"github.com/stm-go/stm/internal/xrand"
	"github.com/stm-go/stm/stmds"
)

// mustMemEngine and forEachEngine run each linearizability harness once per
// commit engine: the histories (meant for -race) are the strongest evidence
// the repo has that a protocol's commits really are atomic, so every engine
// gets checked, not just the default.
func mustMemEngine(t *testing.T, words int, eng stm.Engine) *stm.Memory {
	t.Helper()
	m, err := stm.New(words, stm.WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func forEachEngine(t *testing.T, f func(t *testing.T, eng stm.Engine)) {
	for _, e := range stm.Engines() {
		t.Run("engine="+e.String(), func(t *testing.T) { f(t, e) })
	}
}

func TestMapLinearizable(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng stm.Engine) { testMapLinearizable(t, eng, 33, 4) })
}

func TestMapLinearizableReadMostly(t *testing.T) {
	// 95 % Gets: a Get makes no engine attempt and owns nothing — it is
	// committed where its last read was admitted — so nearly every
	// operation of these histories linearizes with no protocol step of its
	// own, between (and during) the few Puts and Deletes that have one.
	forEachEngine(t, func(t *testing.T, eng stm.Engine) { testMapLinearizable(t, eng, 95, 16) })
}

func testMapLinearizable(t *testing.T, eng stm.Engine, getPct uint64, opsPer int) {
	// Concurrent put/get/delete on one key — getPct percent Gets, the rest
	// split evenly — checked as a presence/value register. The map is
	// seeded tiny and a churn key keeps a resize in flight during some
	// rounds, so migration is covered too.
	const (
		rounds  = 60
		workers = 3
	)
	// Every worker stream in every round derives from one simrand base
	// seed, printed with replay instructions (STM_SIM_SEED) on failure.
	seed := simrand.SeedForTest(t)
	for round := 0; round < rounds; round++ {
		m := mustMemEngine(t, 1<<12, eng)
		mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-churn pushes occupancy near the growth threshold so some
		// rounds run their history across an incremental resize.
		for i := int64(0); i < int64(round%8); i++ {
			if _, _, err := mp.Put(100+i, i); err != nil {
				t.Fatal(err)
			}
		}
		const key = int64(7)
		rec := lin.NewRecorder()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := xrand.New(seed ^ (uint64(round*41+w) + 3))
				for i := 0; i < opsPer; i++ {
					kind := uint64(1) // get
					if rng.Uint64()%100 >= getPct {
						kind = rng.Uint64() % 2 * 2 // put or delete
					}
					switch kind {
					case 0:
						v := rng.Uint64()%100 + 1
						call := rec.Begin(w, lin.Op{Kind: lin.OpPut, Arg: v})
						prev, replaced, err := mp.Put(key, int64(v))
						if err != nil {
							t.Error(err)
							return
						}
						ret := lin.EmptyRet
						if replaced {
							ret = uint64(prev)
						}
						rec.End(call, ret)
					case 1:
						call := rec.Begin(w, lin.Op{Kind: lin.OpGet})
						v, ok := mp.Get(key)
						ret := lin.EmptyRet
						if ok {
							ret = uint64(v)
						}
						rec.End(call, ret)
					default:
						call := rec.Begin(w, lin.Op{Kind: lin.OpDel})
						prev, ok := mp.Delete(key)
						ret := lin.EmptyRet
						if ok {
							ret = uint64(prev)
						}
						rec.End(call, ret)
					}
				}
			}(w)
		}
		wg.Wait()
		h := rec.History()
		if !lin.CheckG(h, lin.MapModel()) {
			t.Fatalf("round %d: map history not linearizable as a register:\n%+v", round, h)
		}
	}
}

func TestQueueLinearizable(t *testing.T) {
	forEachEngine(t, testQueueLinearizable)
}

func testQueueLinearizable(t *testing.T, eng stm.Engine) {
	// Concurrent TryPut/TryTake histories checked against the bounded
	// FIFO specification.
	const (
		rounds  = 60
		workers = 3
		opsPer  = 4
		qcap    = 4
	)
	seed := simrand.SeedForTest(t)
	for round := 0; round < rounds; round++ {
		m := mustMemEngine(t, 64, eng)
		q, err := stmds.NewQueue[int64](m, stm.Int64(), qcap)
		if err != nil {
			t.Fatal(err)
		}
		rec := lin.NewRecorder()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := xrand.New(seed ^ (uint64(round*31+w) + 1))
				for i := 0; i < opsPer; i++ {
					if rng.Bool() {
						v := rng.Uint64()%100 + 1
						call := rec.Begin(w, lin.Op{Kind: lin.OpEnq, Arg: v})
						ok := q.TryPut(int64(v))
						ret := uint64(0)
						if ok {
							ret = 1
						}
						rec.End(call, ret)
					} else {
						call := rec.Begin(w, lin.Op{Kind: lin.OpDeq})
						v, ok := q.TryTake()
						ret := lin.EmptyRet
						if ok {
							ret = uint64(v)
						}
						rec.End(call, ret)
					}
				}
			}(w)
		}
		wg.Wait()
		if !lin.CheckG(rec.History(), lin.QueueModel(qcap)) {
			t.Fatalf("round %d: queue history not linearizable as a FIFO queue", round)
		}
	}
}

func TestPQLinearizableDrain(t *testing.T) {
	forEachEngine(t, testPQLinearizableDrain)
}

func testPQLinearizableDrain(t *testing.T, eng stm.Engine) {
	// The heap's global ordering claim, checked without the exponential
	// search: after any concurrent prefix, a single-threaded drain must
	// come out sorted by priority.
	const workers = 3
	seed := simrand.SeedForTest(t)
	m := mustMemEngine(t, 1<<10, eng)
	pq, err := stmds.NewPQ[int64](m, stm.Int64(), 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(seed ^ (uint64(w) + 11))
			for i := 0; i < 20; i++ {
				pq.Push(int64(w*100+i), rng.Uint64()%50)
				if i%3 == 0 {
					pq.TryTakeMin()
				}
			}
		}(w)
	}
	wg.Wait()
	last := uint64(0)
	for {
		_, p, ok := pq.TryTakeMin()
		if !ok {
			break
		}
		if p < last {
			t.Fatalf("drain out of order: %d after %d", p, last)
		}
		last = p
	}
}

func TestMapRangeTxSnapshotConsistent(t *testing.T) {
	forEachEngine(t, testMapRangeTxSnapshotConsistent)
}

func testMapRangeTxSnapshotConsistent(t *testing.T, eng stm.Engine) {
	// The RangeTx atomicity claim, checked the conservation way: workers
	// move value between keys (and churn extra keys to keep resizes in
	// flight) while snapshotters sum the whole map through RangeTx inside
	// one transaction. Any torn snapshot breaks the constant sum.
	const (
		keys    = 16
		initial = 1_000
		workers = 3
		moves   = 120
	)
	seed := simrand.SeedForTest(t)
	m := mustMemEngine(t, 1<<14, eng)
	mp, err := stmds.NewMap[int64, int64](m, stm.Int64(), stm.Int64(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < keys; k++ {
		if _, _, err := mp.Put(k, initial); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var movers, snappers sync.WaitGroup
	for w := 0; w < workers; w++ {
		movers.Add(1)
		go func(w int) {
			defer movers.Done()
			rng := xrand.New(seed ^ (uint64(w)*0x9e3779b97f4a7c15 + 7))
			for i := 0; i < moves; i++ {
				from, to := int64(rng.Intn(keys)), int64(rng.Intn(keys))
				if err := m.Atomically(func(tx *stm.DTx) error {
					va, _ := mp.GetTx(tx, from)
					vb, _ := mp.GetTx(tx, to)
					amt := va / 2
					if from == to || amt == 0 {
						return nil
					}
					if _, _, err := mp.PutTx(tx, from, va-amt); err != nil {
						return err
					}
					_, _, err := mp.PutTx(tx, to, vb+amt)
					return err
				}); err != nil {
					t.Error(err)
					return
				}
				// Churn an ephemeral key (insert then delete) so incremental
				// resizes run under the snapshotters.
				ck := int64(keys + rng.Intn(64))
				if _, _, err := mp.Put(ck, 0); err != nil {
					t.Error(err)
					return
				}
				mp.Delete(ck)
			}
		}(w)
	}

	snappers.Add(1)
	go func() {
		defer snappers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sum int64
			if err := m.Atomically(func(tx *stm.DTx) error {
				sum = 0
				mp.RangeTx(tx, func(k, v int64) bool {
					if k < keys {
						sum += v
					}
					return true
				})
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if sum != keys*initial {
				t.Errorf("RangeTx snapshot sum = %d, want %d", sum, keys*initial)
				return
			}
		}
	}()

	movers.Wait()
	close(stop)
	snappers.Wait()
}
