package core

import "fmt"

// The chaos seam: fault injection on the engine attempt path, with zero
// cost when unset.
//
// The simulation harness (the top-level simulation package) needs to park
// goroutines at the protocol's most delicate moments — ownership held but
// nothing installed, the TL2 clock stepped but the write-back not begun —
// to prove that the rest of the system rides out exactly the stalls the
// paper's non-blocking argument is about. The seam is a single registered
// hook fired at five fixed protocol phases, guarded by the same discipline
// as the stmobs event seam (obs.go): one plain atomic load of
// Memory.chaosOn and a branch that predicts not-taken while no hook is
// registered, so the production hot path pays one predicted branch per
// site and zero allocations, pinned by TestAllocsChaosUnset.
//
// The hook runs synchronously on the attempt's goroutine, at a phase where
// the record may hold ownership of (ST) or commit locks on (TL2) its data
// set. A hook that sleeps there is the whole point — but it must never run
// a transaction on the same Memory (a TL2 hook holding commit locks would
// deadlock against its own StableLoadBox wait) and should bound its stall:
// ST stalls are absorbed by cooperative helping, TL2 stalls block
// conflicting writers for the stall's full duration.

// ChaosPoint identifies one injection site on the engine attempt path.
type ChaosPoint uint8

const (
	// ChaosSTPostLock (ST) fires with the attempt's whole data set owned
	// and Success decided, before any old value is agreed or any new value installed:
	// the window in which a stalled initiator's work is completed by the
	// helpers its conflicts recruit.
	ChaosSTPostLock ChaosPoint = iota
	// ChaosSTHelping (ST) fires on a failed initiator, or on a stable load
	// (StableLoadBox) that found its word owned, immediately before it
	// executes its blocker's protocol — mid-helping, the cooperative cost
	// the paper's failure path pays.
	ChaosSTHelping
	// ChaosTL2PostLock (TL2) fires with the write-set commit locks held,
	// before the GV4 clock step.
	ChaosTL2PostLock
	// ChaosTL2PostClock (TL2) fires between the GV4 clock step (and any
	// validation) and the first write-back: the clock already carries this
	// commit's write version, but no word is stamped or installed yet, and
	// every lock is still held.
	ChaosTL2PostClock
	// ChaosSTPostStep (ST) fires on the initiator of an attempt with a read
	// list (Rec.SetReadSet): Success decided, its data set — the words it
	// writes — owned, the commit epoch stepped, and the read list not yet
	// validated — the window in which a commit that lands on one of its
	// words must still be caught by the validation pass.
	ChaosSTPostStep

	chaosPoints
)

// chaosNames is index-aligned with the ChaosPoint constants.
var chaosNames = [...]string{"st-post-lock", "st-helping", "tl2-post-lock", "tl2-post-clock", "st-post-step"}

// String returns the point's selector name.
func (p ChaosPoint) String() string {
	if int(p) < len(chaosNames) {
		return chaosNames[p]
	}
	return fmt.Sprintf("ChaosPoint(%d)", uint8(p))
}

// ChaosPoints returns every injection point, in declaration order.
func ChaosPoints() []ChaosPoint {
	return []ChaosPoint{ChaosSTPostLock, ChaosSTHelping, ChaosTL2PostLock, ChaosTL2PostClock, ChaosSTPostStep}
}

// ChaosEvent describes one firing of an injection point. Addrs aliases the
// record's data set (record-owned scratch, engine order): hooks must copy
// what they keep and must not retain the slice past the call.
type ChaosEvent struct {
	// Point is the injection site that fired.
	Point ChaosPoint
	// Engine is the Memory's commit protocol.
	Engine EngineKind
	// Addrs is the attempt's data set, without any read list. At
	// ChaosSTHelping it is the failed initiator's data set (or the one word
	// a stable load wanted), not the blocker's.
	Addrs []int
	// Writes is the write-set size at the point: the TL2 write count at
	// the TL2 points, the data-set size at the other ST points (ST owns and
	// installs its whole data set), and -1 at ChaosSTHelping.
	Writes int
}

// ChaosFunc is a registered fault-injection hook. It is called
// synchronously from attempt goroutines, concurrently from every goroutine
// running transactions, and must not run transactions against the same
// Memory (see the seam comment above).
type ChaosFunc func(e ChaosEvent)

// SetChaos installs fn as the Memory's fault-injection hook, replacing any
// previous one; nil removes the hook and returns every site to its
// predicted-branch idle cost. Safe to call while transactions run: an
// attempt racing the swap fires either hook (or none).
func (m *Memory) SetChaos(fn ChaosFunc) {
	if fn == nil {
		m.chaosOn.Store(0)
		m.chaosPtr.Store(nil)
		return
	}
	m.chaosPtr.Store(&chaosState{fn: fn})
	m.chaosOn.Store(1)
}

// chaosState boxes the registered hook so chaosPtr swaps are atomic.
type chaosState struct{ fn ChaosFunc }

// chaosFire delivers one injection-point event. Call sites gate on
// m.chaosOn.Load() != 0 (the one-predicted-branch discipline); the nil
// re-check here covers a hook removed between the gate and the load.
func (m *Memory) chaosFire(p ChaosPoint, addrs []int, writes int) {
	st := m.chaosPtr.Load()
	if st == nil {
		return
	}
	st.fn(ChaosEvent{Point: p, Engine: m.kind, Addrs: addrs, Writes: writes})
}
