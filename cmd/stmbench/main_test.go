package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/stm-go/stm/internal/bench"
)

func TestParseProcs(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: "1,2,4", want: []int{1, 2, 4}},
		{in: " 8 , 16 ", want: []int{8, 16}},
		{in: "0", wantErr: true},
		{in: "a", wantErr: true},
		{in: "", wantErr: true},
		{in: "4,-1", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseProcs(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseProcs(%q): want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseProcs(%q): %v", tt.in, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseProcs(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseProcs(%q)[%d] = %d, want %d", tt.in, i, got[i], tt.want[i])
			}
		}
	}
}

func tinyOpt() bench.Options {
	return bench.Options{
		Procs:    []int{1, 2},
		Duration: 40_000,
		Seed:     5,
		QueueCap: 8,
		Pools:    8,
		K:        2,
	}
}

func TestRunExperimentAllIDs(t *testing.T) {
	for _, id := range []string{"T0", "F1", "F2", "F3", "F4", "T1", "F5", "F6", "F7"} {
		id := id
		t.Run(id, func(t *testing.T) {
			table, csv, err := runExperiment(id, tinyOpt())
			if err != nil {
				t.Fatalf("runExperiment(%s): %v", id, err)
			}
			if !strings.Contains(table, id) {
				t.Errorf("table does not carry its id:\n%s", table)
			}
			if !strings.Contains(csv, ",") {
				t.Errorf("csv looks empty: %q", csv)
			}
		})
	}
	if _, _, err := runExperiment("F99", tinyOpt()); err == nil {
		t.Error("unknown experiment id: want error")
	}
}

func TestRunEndToEndWithCSV(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-exp", "F1", "-quick",
		"-duration", "40000",
		"-procs", "1,2",
		"-seed", "7",
		"-csv", filepath.Join(dir, "csv"),
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "csv", "F1.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "processors,") {
		t.Errorf("CSV header unexpected: %q", string(data[:30]))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-exp", "nope"}, io.Discard); err == nil {
		t.Error("unknown experiment flag: want error")
	}
	if err := run([]string{"-procs", "x"}, io.Discard); err == nil {
		t.Error("bad procs flag: want error")
	}
}

func TestRunScenarios(t *testing.T) {
	tests := [][]string{
		{"-kind", "counting", "-method", "stm", "-arch", "bus", "-procs", "2", "-duration", "30000"},
		{"-kind", "queue", "-method", "herlihy", "-arch", "net", "-procs", "2", "-duration", "30000", "-queuecap", "8"},
		{"-kind", "resalloc", "-method", "mcs", "-arch", "bus", "-procs", "2", "-duration", "30000", "-pools", "8", "-k", "2"},
		{"-kind", "counting", "-method", "ttas", "-arch", "bus", "-procs", "4", "-duration", "30000", "-stall", "1"},
		{"-kind", "counting", "-method", "stm", "-arch", "ideal", "-procs", "2", "-duration", "30000"},
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(append([]string{"-exp", "run"}, args...), &out); err != nil {
			t.Errorf("run(%v): %v", args, err)
			continue
		}
		if !strings.Contains(out.String(), "throughput") {
			t.Errorf("run(%v): no throughput line in\n%s", args, out.String())
		}
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "bogus"},
		{"-method", "bogus"},
		{"-arch", "bogus"},
		{"-procs", "0"},
		{"-procs", "2,4"}, // one scenario, one processor count
	} {
		if err := run(append([]string{"-exp", "run", "-duration", "1000"}, args...), io.Discard); err == nil {
			t.Errorf("-exp run %v: want error", args)
		}
	}
}
