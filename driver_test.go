package stm_test

import (
	"context"
	"testing"
	"time"

	stm "github.com/stm-go/stm"
)

func TestNilContextNeverCancelled(t *testing.T) {
	// Every ...Context entry point runs on the one driver, where a nil
	// context means "never cancelled": a conflict, or a Retry's wait, must
	// defer and retry exactly as the context-free form does rather than
	// dereference the nil.
	var nilCtx context.Context
	blindWrite := func(tx *stm.DTx) error { tx.Write(0, 7); return nil }
	cases := []struct {
		name string
		// guarded cases start from a Retry on an idle word 0 that a later
		// add satisfies; the others start against a held one.
		guarded bool
		run     func(t *testing.T, m *stm.Memory) error
	}{
		{"AtomicallyContext", false, func(t *testing.T, m *stm.Memory) error {
			return m.AtomicallyContext(nilCtx, blindWrite)
		}},
		{"OrElseContext", false, func(t *testing.T, m *stm.Memory) error {
			return m.OrElseContext(nilCtx, func(tx *stm.DTx) error { tx.Retry(); return nil }, blindWrite)
		}},
		{"AtomicallyContext/Retry", true, func(t *testing.T, m *stm.Memory) error {
			v, err := stm.VarAt(m, stm.Int64(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return m.AtomicallyContext(nilCtx, func(tx *stm.DTx) error {
				if stm.ReadVar(tx, v) <= 0 {
					tx.Retry()
				}
				return nil
			})
		}},
	}
	for _, eng := range stm.Engines() {
		for _, tc := range cases {
			t.Run(eng.String()+"/"+tc.name, func(t *testing.T) {
				pol := &protocolPolicy{}
				m, err := stm.New(4, stm.WithEngine(eng), stm.WithPolicy(pol))
				if err != nil {
					t.Fatal(err)
				}
				if tc.guarded {
					time.AfterFunc(2*time.Millisecond, func() {
						addWord(m, 0, 1)
					})
				} else {
					s := stallWord(t, m, 0, 1)
					pol.onConflict = func(int) { s.next() }
					defer m.SetChaos(nil)
				}
				if err := tc.run(t, m); err != nil {
					t.Fatalf("err = %v under a nil context", err)
				}
				if !tc.guarded {
					pol.mu.Lock()
					defer pol.mu.Unlock()
					if len(pol.calls) != 2 || pol.calls[0].hook != "conflict" || pol.calls[1].hook != "commit" {
						t.Errorf("hooks = %+v, want one conflict then one commit", pol.calls)
					}
				}
			})
		}
	}
}
