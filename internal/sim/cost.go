package sim

// OpKind classifies a shared-memory operation for the cost model.
type OpKind int

// Operation kinds. SCFail is an SC whose reservation was already lost; it
// still probes memory (and on real hardware still issues the bus/network
// transaction) but performs no write.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpLL
	OpSC
	OpSCFail
	OpCAS
	OpCASFail
)

// String returns the mnemonic for k.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpLL:
		return "ll"
	case OpSC:
		return "sc"
	case OpSCFail:
		return "sc-fail"
	case OpCAS:
		return "cas"
	case OpCASFail:
		return "cas-fail"
	default:
		return "unknown"
	}
}

// CostModel prices one memory operation and evolves the architecture's
// contention state (bus occupancy, module queues, cache residency). The
// machine calls Cost exactly once per operation, in global virtual-time
// order, so implementations need no locking.
type CostModel interface {
	// Cost returns the cycles from issue to completion for processor p
	// performing kind on word addr, issued at time now.
	Cost(p int, addr int, kind OpKind, now int64) int64
}
