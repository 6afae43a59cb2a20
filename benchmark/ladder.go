package main

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/internal/core"
	"github.com/stm-go/stm/stmserve"
)

// The ladder costs the workload's own op stream at each layer it crosses,
// from the outside, one goroutine, no sockets:
//
//	stmserve.feed ⊃ stmds.batch ⊃ stm.atomically ⊃ core.attempt
//
// Each rung does what the one above it does minus one layer, so a rung's
// self time is its value minus the rung below. The two lower rungs replay
// the footprint (words in the data set, words changed, per commit) that
// the stmds rung was observed to commit.

// rung runs step for d and returns nanoseconds per op; step reports how
// many ops it performed. The time is spent as three slices and the
// fastest is reported: a rung is a single short run, and on a shared host
// whatever disturbs a slice only ever slows it.
func rung(d time.Duration, step func() int) float64 {
	const slices = 3
	best := math.Inf(1)
	for s := 0; s < slices; s++ {
		ops := 0
		start := time.Now()
		for time.Since(start) < d/slices {
			for i := 0; i < 8; i++ {
				ops += step()
			}
		}
		best = min(best, float64(time.Since(start))/float64(ops))
	}
	return best
}

// mapRungs drives a populated Map with connection 0's op stream.
type mapRungs struct {
	mp     *wireMap
	gen    *generator
	ops    []op // the request batchTx is committing
	txFn   func(*stm.DTx) error
	failed int
	keyBuf [accounts]int32
}

func newMapRungs(cfg *runConfig, eng stm.Engine) (*mapRungs, error) {
	mp, err := newWireMap(cfg.w, eng)
	if err != nil {
		return nil, err
	}
	m := &mapRungs{mp: mp, gen: newGenerator(cfg.w, cfg.seed, 0)}
	m.txFn = m.batchTx // bound once: a method value allocates
	return m, nil
}

// keys returns the key indexes o touches and whether o writes them.
func (m *mapRungs) keys(o *op) (keys []int32, write bool) {
	switch o.kind {
	case opSnapshot:
		for a := range m.keyBuf {
			m.keyBuf[a] = int32(a)
		}
		return m.keyBuf[:], false
	case opTransfer:
		m.keyBuf[0], m.keyBuf[1] = o.a, o.b
		return m.keyBuf[:2], true
	}
	m.keyBuf[0] = o.a
	return m.keyBuf[:1], o.kind == opSet
}

// get is one request's keys as standalone Map.Get calls.
func (m *mapRungs) get() (calls int) {
	for i := range m.gen.next() {
		keys, _ := m.keys(&m.gen.ops[i])
		for _, key := range keys {
			if _, found := m.mp.Get(wireKey(key)); !found {
				m.failed++
			}
		}
		calls += len(keys)
	}
	return calls
}

// put is one request's keys as standalone Map.Put calls.
func (m *mapRungs) put() (calls int) {
	for i := range m.gen.next() {
		o := &m.gen.ops[i]
		keys, _ := m.keys(o)
		for _, key := range keys {
			if _, replaced, err := m.mp.Put(wireKey(key), wireValue(key, o.nonce)); err != nil || !replaced {
				m.failed++
			}
		}
		calls += len(keys)
	}
	return calls
}

// batch is one request as one transaction over the Tx forms: what
// stmserve asks of stmds, without parsing, planning or replying.
func (m *mapRungs) batch() int {
	m.ops = m.gen.next()
	if err := m.mp.Memory().Atomically(m.txFn); err != nil {
		m.failed++
	}
	return len(m.ops)
}

func (m *mapRungs) batchTx(tx *stm.DTx) error {
	for i := range m.ops {
		o := &m.ops[i]
		keys, write := m.keys(o)
		for _, key := range keys {
			k := wireKey(key)
			var v wire
			if o.kind == opSet {
				v = wireValue(key, o.nonce) // SET stores without reading
			} else {
				var found bool
				if v, found = m.mp.GetTx(tx, k); !found {
					m.failed++
				}
				v.b[wireBytes-1]++ // INCRBY's changed balance: one word differs
			}
			if !write {
				continue
			}
			if _, _, err := m.mp.PutTx(tx, k, v); err != nil {
				m.failed++
			}
		}
	}
	return nil
}

// footprint is the shape of the transactions a workload's requests commit
// through stmds: the mean data-set size, how often a commit changes
// anything, and how many words it then changes.
type footprint struct {
	words      int
	writeEvery int // one commit in this many writes; 0 = none does
	writeWords int
}

// commitObserver sums what committed attempts spanned.
type commitObserver struct {
	commits, words, writers, writes atomic.Int64
}

func (c *commitObserver) ObsEvent(e *stm.Event) {
	if e.Kind != stm.EvCommit {
		return
	}
	c.commits.Add(1)
	c.words.Add(int64(e.Size))
	if e.Writes > 0 {
		c.writers.Add(1)
		c.writes.Add(int64(e.Writes))
	}
}

// measureFootprint observes the batch rung's commits. The footprint
// belongs to the workload and stmds, not to the engine, and only TL2
// reports how many words a commit changed (ST owns its whole data set),
// so it is measured there once and replayed on both engines.
func measureFootprint(cfg *runConfig) (footprint, error) {
	m, err := newMapRungs(cfg, stm.TL2)
	if err != nil {
		return footprint{}, err
	}
	var obs commitObserver
	m.mp.Memory().Observe(stm.ObsConfig{Level: stm.ObsCounters, Observer: &obs})
	// Enough requests to see a 1-in-10 write mix at depth 1 without
	// spending seconds on depth-64 batches.
	for i := 0; i < max(64, 2048/cfg.w.depth); i++ {
		m.batch()
	}
	n, writers := obs.commits.Load(), obs.writers.Load()
	if m.failed > 0 || n == 0 {
		return footprint{}, fmt.Errorf("footprint pass: %d failed calls, %d commits", m.failed, n)
	}
	fp := footprint{words: int((obs.words.Load() + n/2) / n)}
	if writers > 0 {
		fp.writeEvery = int((n + writers/2) / writers)
		fp.writeWords = int((obs.writes.Load() + writers/2) / writers)
	}
	return fp, nil
}

// writesAt reports how many words the i-th replayed transaction changes.
func (fp footprint) writesAt(i int) int {
	if fp.writeEvery > 0 && i%fp.writeEvery == 0 {
		return fp.writeWords
	}
	return 0
}

// runLadder measures every rung of one engine, in ns per op.
func runLadder(cfg *runConfig, eng stm.Engine, fp footprint) (map[string]float64, error) {
	out := make(map[string]float64)
	if cfg.w.tcp {
		ns, err := feedRung(cfg, eng)
		if err != nil {
			return nil, err
		}
		out["stmserve.feed_ns_per_op"] = ns
	}

	m, err := newMapRungs(cfg, eng)
	if err != nil {
		return nil, err
	}
	out["stmds.map_get_ns"] = rung(cfg.rung, m.get)
	out["stmds.map_put_ns"] = rung(cfg.rung, m.put)
	out["stmds.batch_ns_per_op"] = rung(cfg.rung, m.batch)
	if m.failed > 0 {
		return nil, fmt.Errorf("%d stmds rung calls failed", m.failed)
	}

	depth := float64(cfg.w.depth)
	ns, err := atomicallyRung(cfg, eng, fp)
	if err != nil {
		return nil, err
	}
	out["stm.atomically_ns"] = ns / depth
	if ns, err = attemptRung(cfg, eng, fp); err != nil {
		return nil, err
	}
	out["core.attempt_ns"] = ns / depth
	return out, nil
}

// feedRung drives the workload's exact request bytes through
// Server.NewSession + Session.Feed with the replies discarded.
func feedRung(cfg *runConfig, eng stm.Engine) (float64, error) {
	srv, err := stmserve.New(stmserve.Config{Engine: eng})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	sess := srv.NewSession(io.Discard)
	var buf []byte
	for i := 0; i < cfg.w.keys; i++ {
		buf = appendPopulate(buf[:0], cfg.w, int32(i))
		if err := sess.Feed(buf); err != nil {
			return 0, err
		}
	}
	gen := newGenerator(cfg.w, cfg.seed, 0)
	var feedErr error
	ns := rung(cfg.rung, func() int {
		ops := gen.next()
		buf = appendRequest(buf[:0], ops)
		if err := sess.Feed(buf); err != nil {
			feedErr = err
		}
		return len(ops)
	})
	return ns, feedErr
}

// atomicallyRung commits the footprint through Memory.Atomically and the
// typed Var layer, over one-word Vars. It returns nanoseconds per
// transaction.
func atomicallyRung(cfg *runConfig, eng stm.Engine, fp footprint) (float64, error) {
	mem, err := stm.New(memoryWords, stm.WithEngine(eng))
	if err != nil {
		return 0, err
	}
	vars := make([]*stm.Var[uint64], fp.words)
	for i := range vars {
		if vars[i], err = stm.Alloc(mem, stm.Uint64()); err != nil {
			return 0, err
		}
	}
	writes := 0
	body := func(tx *stm.DTx) error {
		for i, v := range vars {
			x := stm.ReadVar(tx, v)
			if i < writes {
				stm.WriteVar(tx, v, x+1)
			}
		}
		return nil
	}
	var txErr error
	n := 0
	ns := rung(cfg.rung, func() int {
		writes = fp.writesAt(n)
		n++
		if err := mem.Atomically(body); err != nil {
			txErr = err
		}
		return 1
	})
	return ns, txErr
}

// attemptRung makes the same footprint one engine attempt:
// core.Memory.Begin + RunAttempt, no DTx, no Var. It returns nanoseconds
// per committed attempt.
func attemptRung(cfg *runConfig, eng stm.Engine, fp footprint) (float64, error) {
	mem, err := core.NewMemoryEngine(memoryWords, eng)
	if err != nil {
		return 0, err
	}
	writes := 0
	calc := func(_ any, old, new []uint64, _ bool) {
		copy(new, old)
		for i := 0; i < writes; i++ {
			new[i]++
		}
	}
	aborted, n := 0, 0
	ns := rung(cfg.rung, func() int {
		writes = fp.writesAt(n)
		n++
		rec := mem.Begin(fp.words)
		for i, addrs := 0, rec.Addrs(); i < len(addrs); i++ {
			addrs[i] = i
		}
		if !mem.RunAttempt(rec, calc, nil) {
			aborted++
		}
		return 1
	})
	if aborted > 0 {
		return 0, fmt.Errorf("%d uncontended core attempts aborted", aborted)
	}
	return ns, nil
}
