package main

import "testing"

// TestRunSuiteSanity drives the harness dispatch end to end through the
// binary's flag surface: the sanity tier must pass (because the planted
// bug is caught) on a filtered engine with a pinned seed.
func TestRunSuiteSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system suite: seconds of wall clock")
	}
	args := []string{"-suite", "sanity", "-engine", "st", "-seed", "31"}
	if err := run(args); err != nil {
		t.Errorf("run(%v): %v", args, err)
	}
}

func TestRunSuiteRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-suite", "bogus"}); err == nil {
		t.Error("bogus suite tier: want error")
	}
	if err := run([]string{"-suite", "smoke", "-engine", "bogus"}); err == nil {
		t.Error("bogus engine: want error")
	}
	if err := run([]string{"-suite", "smoke", "-duration", "potato"}); err == nil {
		t.Error("unparsable suite duration: want error")
	}
	if err := run([]string{"-suite", "smoke", "-duration", "30000"}); err == nil {
		t.Error("virtual-cycle duration: want error (cycles belong to stmbench -exp run)")
	}
	if err := run([]string{"-kind", "counting"}); err == nil {
		t.Error("simulator flag: want error (the cycle-level simulator is stmbench -exp run)")
	}
}
