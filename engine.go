package stm

import (
	"fmt"
	"strings"

	"github.com/stm-go/stm/internal/core"
)

// Engine selects a Memory's commit protocol — how transaction attempts read
// their data sets, validate them, and install new values. Every layer of the
// API (static transactions, typed Vars, dynamic Atomically, the
// stmds structures, the contention policy) runs unchanged on any engine; the
// choice only moves the performance trade-off:
//
//   - ST (the default) is Shavit & Touitou's cooperative-helping ownership
//     protocol. A static attempt acquires ownership of its whole data set,
//     a dynamic commit only of the words it writes (the rest it validates),
//     and a blocked attempt helps its blocker to completion, so no
//     transaction ever waits on a preempted peer — the strongest liveness,
//     at the price of several atomic read-modify-writes per owned word. A
//     read owns nothing: it helps an owner it meets and reads on.
//   - TL2 is a TL2/LSA-style global-version-clock protocol. Reads are
//     invisible (no ownership, validated against a clock sample), writes
//     commit under short per-word locks, and read-only attempts commit
//     with zero atomic read-modify-writes. Read-mostly static workloads
//     run far faster; the price is that a preempted committer briefly
//     blocks conflicting writers instead of being helped.
//
// An attempt is what a static operation, or a dynamic transaction with
// something to write, makes. A dynamic transaction that wrote nothing makes
// none on either engine (see Atomically).
//
// See DESIGN.md §11 and the package documentation's "choosing an engine"
// section.
type Engine = core.EngineKind

// The available engines. The zero value is ST, so a Memory built without
// WithEngine keeps the original protocol.
const (
	// ST is the source paper's cooperative-helping ownership protocol.
	ST = core.EngineST
	// TL2 is the global-version-clock protocol: invisible reads, lazy
	// writes, short locking commits.
	TL2 = core.EngineTL2
)

// Engines returns every available engine, in selector-name order.
func Engines() []Engine { return core.EngineKinds() }

// EngineNames returns the selector names of every available engine ("st",
// "tl2"), in the same order as Engines — ready for flag usage strings.
func EngineNames() []string {
	kinds := core.EngineKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// ParseEngine resolves a selector name ("st", "tl2"; case-insensitive,
// surrounding space ignored) to its Engine. Unknown names return an error
// listing the valid selectors.
func ParseEngine(s string) (Engine, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, k := range core.EngineKinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("stm: unknown engine %q (valid engines: %s)", s, strings.Join(EngineNames(), ", "))
}

// WithEngine selects the Memory's commit protocol. The default is ST.
func WithEngine(e Engine) Option {
	return func(c *config) { c.engine = e }
}
