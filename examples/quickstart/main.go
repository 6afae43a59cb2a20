// Quickstart: the public STM API in one file.
//
// The typed layer is the front door: allocate Var[T] handles, use their
// own methods for one variable, and run Atomically over ReadVar/WriteVar
// for anything that spans several. A Var's Store and Update are the
// paper's static transactions — the data set is fixed before they start —
// and an Atomically block (Load and CompareAndSwap are small ones)
// discovers its data set, then commits it through the
// same non-blocking Shavit–Touitou protocol, so no transaction ever waits
// on a stalled goroutine. The raw word-addressed API is still there for
// engine-level access, shown at the end.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	stm "github.com/stm-go/stm"
)

func main() {
	m, err := stm.New(64)
	if err != nil {
		log.Fatal(err)
	}

	// Typed variables, allocated from the Memory's word allocator.
	checking, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		log.Fatal(err)
	}
	savings, err := stm.Alloc(m, stm.Int64())
	if err != nil {
		log.Fatal(err)
	}
	rate, err := stm.Alloc(m, stm.Float64())
	if err != nil {
		log.Fatal(err)
	}
	checking.Store(900)
	savings.Store(100)
	rate.Store(0.031)

	// A typed two-variable transaction: move money atomically.
	if err := m.Atomically(func(tx *stm.DTx) error {
		stm.WriteVar(tx, checking, stm.ReadVar(tx, checking)-250)
		stm.WriteVar(tx, savings, stm.ReadVar(tx, savings)+250)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checking %d, savings %d, rate %.3f\n",
		checking.Load(), savings.Load(), rate.Load())

	// A call site whose footprint is the same every time commits
	// allocation-free in steady state: the transaction's logs and its
	// sorted footprint are recycled, so only the first run pays.
	bump := func(tx *stm.DTx) error {
		stm.WriteVar(tx, checking, stm.ReadVar(tx, checking)+10)
		stm.WriteVar(tx, savings, stm.ReadVar(tx, savings)+1)
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := m.Atomically(bump); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after 3 repeated runs: checking %d, savings %d\n",
		checking.Load(), savings.Load())

	// Single-variable read-modify-write, with the old value back.
	old := savings.Update(func(s int64) int64 { return s * 2 })
	fmt.Printf("savings doubled: %d -> %d\n", old, savings.Load())

	// Blocking-style operations: Retry waits until a word the transaction
	// read changes, then runs it again.
	gate, err := stm.Alloc(m, stm.Bool())
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if err := m.Atomically(func(tx *stm.DTx) error {
			if !stm.ReadVar(tx, gate) {
				tx.Retry() // wait for the gate
			}
			stm.WriteVar(tx, gate, false)
			stm.WriteVar(tx, checking, stm.ReadVar(tx, checking)-1) // take a token
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		close(done)
	}()
	fmt.Println("consumer waiting for the gate...")
	gate.Store(true)
	<-done
	fmt.Println("consumer passed; checking =", checking.Load())
	if c, s := checking.Load(), savings.Load(); c != 679 || s != 706 {
		log.Fatalf("checking %d, savings %d: want 679 and 706", c, s)
	}

	// Engine-level access: the raw word-addressed static-transaction API
	// underneath. Reserve words from the same allocator so raw and typed
	// regions never collide, then address them directly.
	base, err := m.AllocWords(3)
	if err != nil {
		log.Fatal(err)
	}
	addrs := []int{base, base + 1, base + 2}
	if err := m.WriteAll(addrs, []uint64{100, 200, 300}); err != nil {
		log.Fatal(err)
	}
	// A static transaction is the paper's: a data set in ascending order,
	// prepared once, and one function from its old values to its new ones.
	tx, err := m.Prepare(addrs)
	if err != nil {
		log.Fatal(err)
	}
	rotated := make([]uint64, len(addrs))
	tx.RunInto(func(old, new []uint64) {
		new[0], new[1], new[2] = old[1], old[2], old[0]
	}, rotated)
	now := make([]uint64, len(addrs))
	if err := m.ReadAllInto(addrs, now); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw rotate %v -> %v\n", rotated, now)
	if now[0] != 200 || now[1] != 300 || now[2] != 100 {
		log.Fatalf("rotated words = %v, want [200 300 100]", now)
	}

	st := m.Stats()
	fmt.Printf("protocol stats: %d attempts, %d commits, %d failures, %d helps\n",
		st.Attempts, st.Commits, st.Failures, st.Helps)
}
