package sim

// IdealModel charges one cycle for every operation regardless of locality
// or contention: the abstract PRAM-like machine on which throughput is a
// direct count of protocol steps. The experiments use it to report each
// method's instruction-level footprint (operations per committed
// transaction) separately from the architecture effects the bus/network
// models add.
type IdealModel struct {
	ops int64
}

var _ CostModel = (*IdealModel)(nil)

// NewIdealModel builds a unit-cost model.
func NewIdealModel() *IdealModel { return &IdealModel{} }

// Ops returns the number of operations priced so far.
func (im *IdealModel) Ops() int64 { return im.ops }

// Cost implements CostModel.
func (im *IdealModel) Cost(int, int, OpKind, int64) int64 {
	im.ops++
	return 1
}
