package bench

import "fmt"

// StepCounts produces T0: each method's protocol footprint — simulated
// memory operations per completed workload operation — measured on the
// unit-cost (ideal) machine, uncontended (P=1) and contended (P=8). This
// is the op-count analysis that explains the constant factors in F1–F4
// independent of any architecture model.
func StepCounts(o Options) (Doc, error) {
	doc := Doc{
		ID:    "T0",
		Title: "Protocol footprint: memory operations per completed operation (ideal machine)",
		Head:  []string{"workload", "method", "P=1", "P=8"},
		Notes: []string{
			"unit-cost machine: every memory operation is one cycle, so ops/op is architecture-independent",
			fmt.Sprintf("duration=%d cycles/point, seed=%d", o.Duration, o.Seed),
		},
	}
	kinds := []Kind{KindCounting, KindQueue}
	for _, kind := range kinds {
		for _, method := range Methods {
			row := []string{string(kind), string(method)}
			for _, procs := range []int{1, 8} {
				out, err := Run(Spec{
					Kind:     kind,
					Method:   method,
					Arch:     ArchIdeal,
					Procs:    procs,
					Duration: o.Duration,
					Seed:     o.Seed,
					QueueCap: o.QueueCap,
				})
				if err != nil {
					return Doc{}, err
				}
				if out.Ops == 0 {
					row = append(row, "-")
					continue
				}
				row = append(row, fmt.Sprintf("%.1f", out.Extra["mem_ops"]/float64(out.Ops)))
			}
			doc.Rows = append(doc.Rows, row)
		}
	}
	return doc, nil
}

// TxSize produces F7: throughput as the transaction's data-set size k
// grows (k-way resource allocation at fixed processor count), STM variants
// vs the coarse lock — the overhead-vs-transaction-size analysis.
func TxSize(o Options) (Figure, error) {
	const procs = 16
	ks := []int{1, 2, 4, 8}
	methods := []Method{MethodSTM, MethodSTMNoHelp, MethodMCS}

	series := make([]Series, len(methods))
	for mi, method := range methods {
		pts := make([]Point, 0, len(ks))
		for _, k := range ks {
			out, err := Run(Spec{
				Kind:     KindResAlloc,
				Method:   method,
				Arch:     ArchBus,
				Procs:    procs,
				Duration: o.Duration,
				Seed:     o.Seed,
				Pools:    32,
				K:        k,
			})
			if err != nil {
				return Figure{}, err
			}
			pts = append(pts, Point{X: float64(k), Y: out.Throughput})
		}
		series[mi] = Series{Label: string(method), Points: pts}
	}
	return Figure{
		ID:     "F7",
		Title:  fmt.Sprintf("Transaction size: k-way allocation over 32 pools, %d processors, bus machine", procs),
		XLabel: "data-set size k",
		YLabel: "throughput (acquire+release / 10^6 cycles)",
		Series: series,
		Notes: []string{
			"extension experiment: overhead growth with transaction size",
			fmt.Sprintf("duration=%d cycles/point, seed=%d", o.Duration, o.Seed),
		},
	}, nil
}
