// Package lin records concurrent operation histories and checks them for
// linearizability against a sequential specification — the correctness
// criterion the paper claims for static transactions. The checker is a
// Wing & Gong style search with memoization: it looks for a total order of
// the operations that (a) respects real-time precedence (an operation that
// completed before another began must be ordered first) and (b) makes every
// recorded return value match the sequential model.
//
// The search is exponential in the worst case, so it is intended for many
// short histories (a few dozen operations) rather than one long one; short
// histories still expose ordering violations with high probability.
package lin

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// OpKind identifies an operation of the sequential specification.
type OpKind int

// Operation kinds understood by WordModel.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpSwap
	OpCAS
	OpAdd
)

// Op is one invocation: a kind plus up to two arguments.
type Op struct {
	Kind OpKind
	Arg  uint64
	Arg2 uint64
}

// Entry is a completed operation in a history: its operation, return
// value, and invocation/response timestamps (global sequence numbers).
type Entry struct {
	Proc int
	Op   Op
	Ret  uint64
	Inv  int64
	Res  int64
}

// History is a set of completed operations.
type History []Entry

// Call is an in-flight operation handle returned by Recorder.Begin.
type Call struct {
	proc int
	op   Op
	inv  int64
}

// Recorder collects a concurrent history. Safe for concurrent use.
type Recorder struct {
	clock   atomic.Int64
	mu      sync.Mutex
	entries []Entry
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin records an invocation.
func (r *Recorder) Begin(proc int, op Op) *Call {
	return &Call{proc: proc, op: op, inv: r.clock.Add(1)}
}

// End records the response of a call with its return value.
func (r *Recorder) End(c *Call, ret uint64) {
	res := r.clock.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, Entry{
		Proc: c.proc, Op: c.op, Ret: ret, Inv: c.inv, Res: res,
	})
}

// History returns the completed operations recorded so far, ordered by
// invocation time.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(History, len(r.entries))
	copy(out, r.entries)
	sort.Slice(out, func(i, j int) bool { return out[i].Inv < out[j].Inv })
	return out
}

// Model is a sequential specification. Its state is opaque to the search,
// so one checker serves a word, a queue or a map key alike.
type Model struct {
	// Init is the initial state.
	Init any
	// Step applies op to state, returning the next state and the return
	// value a correct implementation must produce; ok is false for an
	// operation the specification does not know.
	Step func(state any, op Op) (next any, ret uint64, ok bool)
	// Key encodes a state uniquely; it drives memoization.
	Key func(state any) string
}

// WordModel is the sequential specification of a single shared word
// supporting read, write, swap, CAS (ret 1 on success), and fetch-add.
func WordModel(init uint64) Model {
	return Model{
		Init: init,
		Step: func(state any, op Op) (any, uint64, bool) {
			s := state.(uint64)
			switch op.Kind {
			case OpRead:
				return s, s, true
			case OpWrite:
				return op.Arg, 0, true
			case OpSwap:
				return op.Arg, s, true
			case OpCAS:
				if s == op.Arg {
					return op.Arg2, 1, true
				}
				return s, 0, true
			case OpAdd:
				return s + op.Arg, s, true
			default:
				return s, 0, false
			}
		},
		Key: func(state any) string { return strconv.FormatUint(state.(uint64), 10) },
	}
}

// Check reports whether h is linearizable with respect to m. Histories of
// more than 64 operations are rejected (the search uses a bitmask).
func Check(h History, m Model) bool {
	n := len(h)
	if n == 0 {
		return true
	}
	if n > 64 {
		return false
	}
	// failed memoizes (remaining-set, state) pairs proven unlinearizable.
	type cfg struct {
		mask uint64
		key  string
	}
	failed := make(map[cfg]bool)

	full := uint64(1)<<uint(n) - 1

	var search func(mask uint64, state any) bool
	search = func(mask uint64, state any) bool {
		if mask == 0 {
			return true
		}
		c := cfg{mask, m.Key(state)}
		if failed[c] {
			return false
		}
		// Candidate i is linearizable next iff no other remaining op
		// responded before i's invocation.
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if mask&bit == 0 {
				continue
			}
			minimal := true
			for j := 0; j < n; j++ {
				jbit := uint64(1) << uint(j)
				if j == i || mask&jbit == 0 {
					continue
				}
				if h[j].Res < h[i].Inv {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			next, ret, ok := m.Step(state, h[i].Op)
			if !ok || ret != h[i].Ret {
				continue
			}
			if search(mask&^bit, next) {
				return true
			}
		}
		failed[c] = true
		return false
	}
	return search(full, m.Init)
}

// CheckRegister reports whether h is linearizable as a single word
// initialized to init.
func CheckRegister(h History, init uint64) bool {
	return Check(h, WordModel(init))
}
