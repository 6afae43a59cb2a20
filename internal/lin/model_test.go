package lin

import "testing"

func TestQueueModelSequential(t *testing.T) {
	h := History{
		mkEntry(0, Op{Kind: OpEnq, Arg: 5}, 1, 1, 2),
		mkEntry(0, Op{Kind: OpEnq, Arg: 7}, 1, 3, 4),
		mkEntry(0, Op{Kind: OpDeq}, 5, 5, 6),
		mkEntry(0, Op{Kind: OpDeq}, 7, 7, 8),
		mkEntry(0, Op{Kind: OpDeq}, EmptyRet, 9, 10),
	}
	if !Check(h, QueueModel(4)) {
		t.Error("valid FIFO history rejected")
	}
}

func TestQueueModelFIFOViolation(t *testing.T) {
	h := History{
		mkEntry(0, Op{Kind: OpEnq, Arg: 5}, 1, 1, 2),
		mkEntry(0, Op{Kind: OpEnq, Arg: 7}, 1, 3, 4),
		mkEntry(0, Op{Kind: OpDeq}, 7, 5, 6), // LIFO order: invalid for a queue
	}
	if Check(h, QueueModel(4)) {
		t.Error("LIFO dequeue accepted by the queue model")
	}
}

func TestQueueModelCapacity(t *testing.T) {
	h := History{
		mkEntry(0, Op{Kind: OpEnq, Arg: 1}, 1, 1, 2),
		mkEntry(0, Op{Kind: OpEnq, Arg: 2}, 0, 3, 4), // full at capacity 1
	}
	if !Check(h, QueueModel(1)) {
		t.Error("full-rejection history rejected")
	}
	bad := History{
		mkEntry(0, Op{Kind: OpEnq, Arg: 1}, 1, 1, 2),
		mkEntry(0, Op{Kind: OpEnq, Arg: 2}, 1, 3, 4), // impossible accept
	}
	if Check(bad, QueueModel(1)) {
		t.Error("over-capacity accept allowed")
	}
}

func TestQueueModelConcurrentAmbiguity(t *testing.T) {
	// Two overlapping enqueues; the dequeue order fixes which came first —
	// both resolutions must be accepted.
	h := History{
		mkEntry(0, Op{Kind: OpEnq, Arg: 10}, 1, 1, 5),
		mkEntry(1, Op{Kind: OpEnq, Arg: 20}, 1, 2, 6),
		mkEntry(0, Op{Kind: OpDeq}, 20, 7, 8),
		mkEntry(0, Op{Kind: OpDeq}, 10, 9, 10),
	}
	if !Check(h, QueueModel(4)) {
		t.Error("valid resolution of concurrent enqueues rejected")
	}
}

func TestCheckGRejectsUnknownOps(t *testing.T) {
	h := History{mkEntry(0, Op{Kind: OpRead}, 0, 1, 2)}
	if Check(h, QueueModel(2)) {
		t.Error("unknown op kind accepted")
	}
}

func TestCheckGOversize(t *testing.T) {
	h := make(History, 65)
	for i := range h {
		h[i] = mkEntry(0, Op{Kind: OpEnq, Arg: 1}, 1, int64(2*i+1), int64(2*i+2))
	}
	if Check(h, QueueModel(100)) {
		t.Error("oversize history must be rejected")
	}
}

func TestCheckGEmpty(t *testing.T) {
	if !Check(nil, QueueModel(1)) {
		t.Error("empty history must be linearizable")
	}
}
