package main

import (
	"encoding/binary"
	"time"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmds"
)

// wire is a key or value as the server stores it: a length byte and a
// 64-byte array, nine words through its codec. lib-map and the stmds
// ladder rungs use the server's widths so that their numbers describe the
// same Map the TCP workloads reach through stmserve.
type wire struct {
	n byte
	b [wireBytes]byte
}

const (
	wireBytes   = 64
	wireWords   = 1 + wireBytes/8
	memoryWords = 1 << 20 // stmserve's default Memory size
)

type wireCodec struct{}

func (wireCodec) Words() int { return wireWords }

func (wireCodec) Encode(v wire, dst []uint64) {
	dst[0] = uint64(v.n)
	for w := 0; w < wireBytes/8; w++ {
		dst[1+w] = binary.LittleEndian.Uint64(v.b[8*w:])
	}
}

func (wireCodec) Decode(src []uint64) (v wire) {
	v.n = byte(min(src[0], wireBytes))
	for w := 0; w < wireBytes/8; w++ {
		binary.LittleEndian.PutUint64(v.b[8*w:], src[1+w])
	}
	return v
}

func wireKey(i int32) (k wire) {
	k.n = byte(len(appendKey(k.b[:0], i)))
	return k
}

func wireValue(i int32, nonce uint32) (v wire) {
	v.n = byte(len(appendValue(v.b[:0], i, nonce)))
	return v
}

type wireMap = stmds.Map[wire, wire]

// newWireMap builds a Memory of the server's size on eng and a Map of the
// server's shape in it, holding w's keys.
func newWireMap(w *workload, eng stm.Engine) (*wireMap, error) {
	mem, err := stm.New(memoryWords, stm.WithEngine(eng))
	if err != nil {
		return nil, err
	}
	mp, err := stmds.NewMap[wire, wire](mem, wireCodec{}, wireCodec{}, kvKeys)
	if err != nil {
		return nil, err
	}
	for i := int32(0); i < int32(w.keys); i++ {
		if _, _, err := mp.Put(wireKey(i), wireValue(i, 0)); err != nil {
			return nil, err
		}
	}
	return mp, nil
}

// libCall performs one generated op against the map and verifies the
// result: a Get must return the key's own index.
func libCall(mp *wireMap, o *op) bool {
	k := wireKey(o.a)
	if o.kind == opSet {
		_, replaced, err := mp.Put(k, wireValue(o.a, o.nonce))
		return err == nil && replaced
	}
	v, found := mp.Get(k)
	idx, ok := valueIndex(v.b[:v.n])
	return found && ok && idx == o.a
}

// libLoop is one goroutine's closed loop of Map calls; every
// latencySampleEvery-th call is timed.
func libLoop(mp *wireMap, wk *worker, gen *generator, deadline time.Time, record bool) {
	for {
		if !time.Now().Before(deadline) {
			return
		}
		for i := 0; i < latencySampleEvery; i++ {
			o := &gen.next()[0]
			timed := record && i == 0
			var start time.Time
			if timed {
				start = time.Now()
			}
			ok := libCall(mp, o)
			if timed {
				wk.sample(start, time.Since(start))
			}
			wk.attempted++
			if !ok {
				wk.failed++
			} else if record {
				wk.ops++
			}
		}
	}
}

// runLibSegment measures one segment of lib-map.
func runLibSegment(cfg *runConfig, eng stm.Engine, seg int, traced bool, ws []*worker) (*segResult, error) {
	begin := time.Now()
	mp, err := newWireMap(cfg.w, eng)
	if err != nil {
		return nil, err
	}
	mem := mp.Memory()
	if traced {
		mem.Observe(stm.ObsConfig{Level: stm.ObsCounters})
	}
	gens := make([]*generator, len(ws))
	for i, wk := range ws {
		wk.reset(traced)
		gens[i] = newGenerator(cfg.w, cfg.seed, wk.id)
	}
	r := &segResult{setup: time.Since(begin)}
	phase := func(n int, d time.Duration, record bool) time.Duration {
		return runPhase(n, d, func(i int, deadline time.Time) {
			libLoop(mp, ws[i], gens[i], deadline, record)
		})
	}

	// The traced run's reference segments first run one goroutine alone:
	// stmds.scale_ratio is the full segment's throughput over this one's.
	if cfg.trace && !traced {
		one := phase(1, cfg.rung, true)
		r.oneGorOps = float64(ws[0].ops) / one.Seconds()
		ws[0].resetSamples()
	}
	phase(len(ws), cfg.warm, false)
	var before, after counters
	if traced {
		readCounters(mem, &before)
	}
	r.elapsed = phase(len(ws), cfg.measure, true)
	if traced {
		readCounters(mem, &after)
	}
	if err := r.collect(ws); err != nil {
		return nil, err
	}
	if traced {
		r.layer = map[string]float64{"core.words_allocated": float64(mem.WordsAllocated())}
		layerCounters(r.layer, eng, &before, &after, r.ops, r.elapsed)
		// A library call has no layers between the caller and the Map: its
		// span is the root alone.
		keep := maxSpanRequests / (len(engines) * cfg.segments * len(ws))
		for _, wk := range ws {
			for j := 0; j < min(keep, len(wk.t0)); j++ {
				cfg.spans.add(span{
					Name: "rtt", Start: wk.t0[j], End: wk.t0[j] + wk.lat[j],
					Conn: wk.id, Seq: j, Engine: eng.String(), Segment: seg,
				})
			}
		}
	}
	return r, nil
}
