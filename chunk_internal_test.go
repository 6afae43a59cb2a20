package stm

// A Memory builds its words a chunk at a time, on the first write to any
// word of the chunk (DESIGN.md §2). These tests pin that no read path
// builds one, and that a word read before its chunk existed still stales a
// speculation once a commit builds the chunk and writes it.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// builtChunks returns the built and total word chunks DebugString reports.
func builtChunks(t *testing.T, m *Memory) (built, total int) {
	t.Helper()
	s := m.DebugString()
	i := strings.Index(s, "chunks=")
	if i < 0 {
		t.Fatalf("DebugString reports no chunks:\n%s", s)
	}
	if _, err := fmt.Sscanf(s[i:], "chunks=%d/%d", &built, &total); err != nil {
		t.Fatalf("DebugString chunks field: %v\n%s", err, s)
	}
	return built, total
}

func TestReadsBuildNoChunk(t *testing.T) {
	// Words 5, 5000 and 9000 lie in three chunks.
	addrs := []int{5, 5000, 9000}
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m := fresh(t, eng, 1<<20)
			if built, total := builtChunks(t, m); built != 0 || total != 256 {
				t.Fatalf("a new Memory reports chunks=%d/%d, want 0/256", built, total)
			}
			for _, a := range addrs {
				if got := m.Peek(a); got != 0 {
					t.Fatalf("Peek(%d) = %d, want 0", a, got)
				}
			}
			var sum uint64
			if err := m.Atomically(func(tx *DTx) error {
				for _, a := range addrs {
					sum += tx.Read(a)
				}
				return nil
			}); err != nil || sum != 0 {
				t.Fatalf("read-only Atomically: sum %d, err %v; want 0, nil", sum, err)
			}
			dst := make([]uint64, len(addrs))
			if err := m.ReadAllInto(addrs, dst); err != nil {
				t.Fatal(err)
			}
			if built, _ := builtChunks(t, m); built != 0 {
				t.Fatalf("%d chunks built by reads, want 0", built)
			}

			// A parked Retry polls its read set until a commit changes it.
			done := make(chan error, 1)
			go func() {
				done <- m.Atomically(func(tx *DTx) error {
					if tx.Read(9000) == 0 {
						tx.Retry()
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				t.Fatalf("the Retry returned before any write (err=%v)", err)
			case <-time.After(50 * time.Millisecond):
			}
			if built, _ := builtChunks(t, m); built != 0 {
				t.Fatalf("%d chunks built while a Retry polled, want 0", built)
			}
			if err := m.WriteAll([]int{9000}, []uint64{1}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if built, _ := builtChunks(t, m); built != 1 {
				t.Fatalf("%d chunks built after one write, want 1", built)
			}
		})
	}
}

func TestUnbuiltReadStalesOnFirstWrite(t *testing.T) {
	// A DTx reads a word of a chunk nobody has built, as 0. A commit then
	// builds the chunk and writes the word; the DTx's next read must find
	// its snapshot stale and run the function again, which reads the value.
	const a, b = 5000, 9000
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			m := fresh(t, eng, 1<<20)
			var seen []uint64
			if err := m.Atomically(func(tx *DTx) error {
				seen = append(seen, tx.Read(a))
				if len(seen) == 1 {
					if err := m.WriteAll([]int{a}, []uint64{7}); err != nil {
						t.Fatal(err)
					}
				}
				tx.Read(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) != 2 || seen[0] != 0 || seen[1] != 7 {
				t.Fatalf("executions read %v, want [0 7]", seen)
			}
			if s := m.Stats(); s.SnapshotStale != 1 {
				t.Errorf("%d stale speculations, want 1", s.SnapshotStale)
			}
			if built, _ := builtChunks(t, m); built != 1 {
				t.Errorf("%d chunks built, want 1: word %d's", built, a)
			}
		})
	}
}
