package sim

// NetConfig parameterizes the distributed-memory (Alewife-like) machine.
type NetConfig struct {
	// LocalAccess is the cost of reaching the processor's own module.
	LocalAccess int64
	// NetLatency is the one-way flight time to a remote module; a remote
	// operation pays it twice (request + response).
	NetLatency int64
	// ModuleService is how long a module is busy serving one request;
	// concurrent requests to the same module queue — the hot-spot effect.
	ModuleService int64
}

// DefaultNetConfig returns the calibration used by the experiments.
func DefaultNetConfig() NetConfig {
	return NetConfig{LocalAccess: 2, NetLatency: 8, ModuleService: 4}
}

// NetModel models a distributed-shared-memory machine in the style of MIT
// Alewife: memory words are striped across per-processor modules, remote
// accesses pay network round-trip latency, and each module serves requests
// one at a time — so a hot word queues every remote processor at one
// module. There is no caching of remote words (accesses go to the home
// node), which is the regime the paper's network figures explore: hot-spot
// contention, not coherence traffic, dominates.
type NetModel struct {
	cfg          NetConfig
	moduleFreeAt []int64 // per processor's module: when it is next free
	remoteOps    int64
}

var _ CostModel = (*NetModel)(nil)

// NewNetModel builds a network model for the given processor count.
func NewNetModel(procs int, cfg NetConfig) *NetModel {
	return &NetModel{cfg: cfg, moduleFreeAt: make([]int64, procs)}
}

// RemoteOps returns the number of remote (off-node) operations so far.
func (n *NetModel) RemoteOps() int64 { return n.remoteOps }

// home returns the module that owns addr: words are striped round-robin,
// so consecutive protocol words land on distinct modules, while a single
// hot word concentrates load on one module.
func (n *NetModel) home(addr int) int { return addr % len(n.moduleFreeAt) }

// Cost implements CostModel.
func (n *NetModel) Cost(p int, addr int, kind OpKind, now int64) int64 {
	home := n.home(addr)
	if home == p {
		// Local module, no queueing against remote traffic is modelled for
		// the owner beyond service occupancy.
		start := now
		if n.moduleFreeAt[home] > start {
			start = n.moduleFreeAt[home]
		}
		n.moduleFreeAt[home] = start + n.cfg.ModuleService
		return (start - now) + n.cfg.LocalAccess + n.cfg.ModuleService
	}
	n.remoteOps++
	arrive := now + n.cfg.NetLatency
	start := arrive
	if n.moduleFreeAt[home] > start {
		start = n.moduleFreeAt[home]
	}
	n.moduleFreeAt[home] = start + n.cfg.ModuleService
	return (start - now) + n.cfg.ModuleService + n.cfg.NetLatency
}
