package lin

import (
	"strconv"
	"strings"
)

// Additional operation kinds for container specifications.
const (
	// OpEnq enqueues Arg; Ret is 1 if accepted, 0 if the container was full.
	OpEnq OpKind = iota + 100
	// OpDeq dequeues; Ret is the value, or EmptyRet if the container was
	// empty.
	OpDeq
	// OpPut maps the fixed key to Arg; Ret is the previous value, or
	// EmptyRet if the key was absent.
	OpPut
	// OpGet reads the fixed key; Ret is the value, or EmptyRet if absent.
	OpGet
	// OpDel removes the fixed key; Ret is the previous value, or EmptyRet
	// if the key was absent.
	OpDel
)

// EmptyRet is the return value encoding "container was empty".
const EmptyRet = ^uint64(0)

// queueState is an immutable FIFO snapshot.
type queueState []uint64

func encodeVals(vals []uint64) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(v, 10))
	}
	return b.String()
}

// QueueModel is the sequential specification of a bounded FIFO queue with
// the given capacity, for OpEnq/OpDeq histories.
func QueueModel(capacity int) Model {
	return Model{
		Init: queueState(nil),
		Step: func(state any, op Op) (any, uint64, bool) {
			q := state.(queueState)
			switch op.Kind {
			case OpEnq:
				if len(q) >= capacity {
					return q, 0, true
				}
				next := make(queueState, len(q)+1)
				copy(next, q)
				next[len(q)] = op.Arg
				return next, 1, true
			case OpDeq:
				if len(q) == 0 {
					return q, EmptyRet, true
				}
				next := make(queueState, len(q)-1)
				copy(next, q[1:])
				return next, q[0], true
			default:
				return q, 0, false
			}
		},
		Key: func(state any) string { return encodeVals(state.(queueState)) },
	}
}

// mapCell is the presence/value state of one map key.
type mapCell struct {
	present bool
	val     uint64
}

// MapModel is the sequential specification of a single map key supporting
// put, get, and delete, for OpPut/OpGet/OpDel histories. Absence is
// reported as EmptyRet, so EmptyRet must not be used as a stored value.
func MapModel() Model {
	return Model{
		Init: mapCell{},
		Step: func(state any, op Op) (any, uint64, bool) {
			c := state.(mapCell)
			prev := EmptyRet
			if c.present {
				prev = c.val
			}
			switch op.Kind {
			case OpPut:
				return mapCell{present: true, val: op.Arg}, prev, true
			case OpGet:
				return c, prev, true
			case OpDel:
				return mapCell{}, prev, true
			default:
				return c, 0, false
			}
		},
		Key: func(state any) string {
			c := state.(mapCell)
			if !c.present {
				return "-"
			}
			return strconv.FormatUint(c.val, 10)
		},
	}
}
