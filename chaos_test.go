package stm_test

// Public-surface tests for the chaos seam re-export (chaos.go): the hook
// fires through the stm.Memory wrapper on both engines, and a prepared
// transaction stays allocation-free with the seam unset.

import (
	"sync"
	"testing"

	stm "github.com/stm-go/stm"
)

func TestChaosHookPublicSurface(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m, err := stm.New(8, stm.WithEngine(eng))
			if err != nil {
				t.Fatal(err)
			}
			var (
				mu     sync.Mutex
				points []stm.ChaosPoint
			)
			m.SetChaos(func(e stm.ChaosEvent) {
				mu.Lock()
				points = append(points, e.Point)
				mu.Unlock()
			})
			tx := mustPrepare(t, m, []int{2, 5})
			inc := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
			var old [2]uint64
			tx.RunInto(inc, old[:])
			mu.Lock()
			n := len(points)
			mu.Unlock()
			if n == 0 {
				t.Fatalf("no chaos point fired on a writing commit (%v)", eng)
			}
			m.SetChaos(nil)
			tx.RunInto(inc, old[:])
			mu.Lock()
			after := len(points)
			mu.Unlock()
			if after != n {
				t.Errorf("chaos fired after SetChaos(nil)")
			}
		})
	}
	if got := len(stm.ChaosPoints()); got != 5 {
		t.Errorf("ChaosPoints() has %d entries, want 5", got)
	}
}

func TestAllocsChaosSeamUnset(t *testing.T) {
	for _, eng := range stm.Engines() {
		m, err := stm.New(8, stm.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		tx := mustPrepare(t, m, []int{2, 5})
		inc := func(o, n []uint64) { n[0], n[1] = o[0]+1, o[1]+1 }
		var old [2]uint64
		assertAllocs(t, "RunInto/chaos-unset/"+eng.String(), 0, func() {
			tx.RunInto(inc, old[:])
		})
	}
}
