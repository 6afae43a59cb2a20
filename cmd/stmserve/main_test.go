package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	stm "github.com/stm-go/stm"
	"github.com/stm-go/stm/stmobs"
	"github.com/stm-go/stm/stmserve"
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

// TestObsFlightHoldsEngineCommits pins the wiring of -obs: the engine's
// observer is the server's flight ring, so at hist the ring keeps sampled
// engine commits beside the batches. A SET is one engine attempt, and the
// sampler picks 1 in DefaultSampleEvery attempts per stats shard, so
// enough SETs to fill every one of the 8 shards' periods must leave one.
// At off nothing is registered and the ring holds only the batches.
func TestObsFlightHoldsEngineCommits(t *testing.T) {
	const sets = 8*stm.DefaultSampleEvery + 1
	for _, tc := range []struct {
		lvl  stm.ObsLevel
		want bool
	}{{stm.ObsHistograms, true}, {stm.ObsOff, false}} {
		srv, err := stmserve.New(stmserve.Config{MemoryWords: 1 << 18, FlightEvents: 2 * sets})
		if err != nil {
			t.Fatal(err)
		}
		observe(srv, tc.lvl)
		sess := srv.NewSession(io.Discard)
		for i := 0; i < sets; i++ {
			if err := sess.Feed([]byte(fmt.Sprintf("SET k %d\r\n", i))); err != nil {
				t.Fatal(err)
			}
		}
		commits := 0
		for _, e := range srv.Flight().Snapshot() {
			if e.Kind == stmobs.FlightStmCommit {
				commits++
			}
		}
		if got := commits > 0; got != tc.want {
			t.Errorf("-obs %v: %d stm-commit events after %d SETs, want any: %v", tc.lvl, commits, sets, tc.want)
		}
		sess.Close()
		srv.Close()
	}
}
