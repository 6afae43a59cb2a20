package main

import (
	"testing"
	"time"

	stm "github.com/stm-go/stm"
)

func TestAllChecksPassQuickly(t *testing.T) {
	if err := run([]string{"-seconds", "0.1", "-goroutines", "4", "-words", "8"}); err != nil {
		t.Fatalf("stmcheck failed: %v", err)
	}
}

func TestIndividualChecks(t *testing.T) {
	const budget = 50 * time.Millisecond
	for _, eng := range stm.Engines() {
		if err := checkCounting(eng, budget, 4, 0, 0); err != nil {
			t.Errorf("checkCounting on %v: %v", eng, err)
		}
		if err := checkConservation(eng, budget, 4, 8, 1); err != nil {
			t.Errorf("checkConservation on %v: %v", eng, err)
		}
		if err := checkLinearizable(eng, budget, 4, 0, 1); err != nil {
			t.Errorf("checkLinearizable on %v: %v", eng, err)
		}
	}
}

func TestLinRoundCapsGoroutines(t *testing.T) {
	// Oversized goroutine counts must be capped, not blow up the checker.
	for _, eng := range stm.Engines() {
		if err := linRound(eng, 64, 9); err != nil {
			t.Errorf("linRound on %v: %v", eng, err)
		}
	}
}
