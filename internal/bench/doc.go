// Package bench is the reproduction's evaluation: the paper's benchmarks
// and the experiments built from them (one per figure or table, see
// DESIGN.md §5), rendered as aligned text tables and CSV.
//
// The benchmarks — the shared counter, the doubly-linked queue, and the
// k-way resource allocation of the ablation experiment — run on the
// simulated multiprocessor of package sim, for every synchronization method
// in the evaluation matrix: the paper's STM and its ablation variants,
// Herlihy's non-blocking method, and TTAS/MCS locks, on the bus, network
// and unit-cost machines. Throughput is completed operations per million
// virtual cycles, and every run checks its final shared state.
package bench
