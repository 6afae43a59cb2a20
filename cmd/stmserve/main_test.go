package main

import (
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
)

// TestObsParseLevel pins the -obs vocabulary: the three levels, and an
// error that names them for anything else — including trace, which is no
// level.
func TestObsParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want stm.ObsLevel
		ok   bool
	}{
		{"off", stm.ObsOff, true},
		{"counters", stm.ObsCounters, true},
		{"hist", stm.ObsHistograms, true},
		{"trace", stm.ObsOff, false},
		{"", stm.ObsOff, false},
		{"HIST", stm.ObsOff, false},
	} {
		got, err := parseObsLevel(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseObsLevel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "want off, counters, or hist")) {
			t.Errorf("parseObsLevel(%q) error = %v, want one listing off, counters, hist", tc.in, err)
		}
	}
}
