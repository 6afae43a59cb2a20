package stm

import (
	"github.com/stm-go/stm/internal/core"
)

// Fault injection: the chaos seam, re-exported from the engine.
//
// A Memory accepts one fault-injection hook (SetChaos) fired synchronously
// at five fixed phases of the engine attempt path — the protocol's most
// delicate moments, where ownership or commit locks are held but nothing
// is installed yet. The simulation package parks goroutines there to prove
// the rest of the system rides out exactly the stalls Shavit–Touitou's
// non-blocking argument is about. When no hook is registered each site is
// one predicted branch and zero allocations, same discipline as the
// observability seam. See DESIGN.md §14.

// ChaosPoint identifies one injection site on the engine attempt path.
type ChaosPoint = core.ChaosPoint

// The injection sites, in declaration order. The ST points fire only on
// the ST engine, the TL2 points only on TL2.
const (
	// ChaosSTPostLock (ST) fires on an initiator with every word it owns
	// owned — a static transaction's whole data set, a dynamic one's write
	// set — and Success decided, before any value is agreed or installed:
	// the window in which helpers complete a stalled owner's work.
	ChaosSTPostLock = core.ChaosSTPostLock
	// ChaosSTHelping (ST) fires on a failed initiator — or on a dynamic
	// transaction's read that found its word owned — immediately before it
	// executes its blocker's protocol.
	ChaosSTHelping = core.ChaosSTHelping
	// ChaosTL2PostLock (TL2) fires with the write-set commit locks held,
	// before the GV4 clock step.
	ChaosTL2PostLock = core.ChaosTL2PostLock
	// ChaosTL2PostClock (TL2) fires between the clock step (and validation)
	// and the first write-back, every lock still held.
	ChaosTL2PostClock = core.ChaosTL2PostClock
	// ChaosSTPostStep (ST) fires on the initiator of a dynamic transaction's
	// commit that read something, with its write set owned and the commit
	// epoch stepped, before the words it read are validated.
	ChaosSTPostStep = core.ChaosSTPostStep
)

// ChaosPoints returns every injection point, in declaration order.
func ChaosPoints() []ChaosPoint { return core.ChaosPoints() }

// ChaosEvent describes one firing of an injection point. Addrs is
// record-owned scratch — copy, don't retain.
type ChaosEvent = core.ChaosEvent

// ChaosFunc is a fault-injection hook. It runs synchronously on attempt
// goroutines, concurrently from every goroutine running transactions, and
// must not run transactions against the same Memory — a TL2 hook holds
// commit locks and would deadlock against its own read wait. Stalls should
// be bounded: ST stalls are absorbed by helping, TL2 stalls block
// conflicting writers for their full duration.
type ChaosFunc = core.ChaosFunc

// SetChaos installs fn as the Memory's fault-injection hook, replacing any
// previous one; nil removes it and returns every site to its
// predicted-branch idle cost. Safe to call while transactions run; an
// attempt racing the swap fires either hook (or none).
func (m *Memory) SetChaos(fn ChaosFunc) { m.eng.SetChaos(fn) }
