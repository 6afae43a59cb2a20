// Philosophers: dining philosophers with composable blocking transactions.
//
// Each philosopher takes BOTH forks in one atomic transaction, and calls
// Retry while either is taken: the transaction blocks until a fork it read
// changes, then runs again. There is no lock ordering discipline to get
// wrong and no hold-and-wait — a philosopher holds no fork until it holds
// both — so the classic deadlock cannot occur even though every
// philosopher "reaches for the left fork first".
//
// Run with: go run ./examples/philosophers
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"

	stm "github.com/stm-go/stm"
)

const (
	philosophers = 7 // the classic Petri-net instance
	meals        = 2_000
)

func main() {
	m, err := stm.New(philosophers)
	if err != nil {
		log.Fatal(err)
	}
	taken := make([]*stm.Var[bool], philosophers)
	for i := range taken {
		if taken[i], err = stm.Alloc(m, stm.Bool()); err != nil {
			log.Fatal(err)
		}
	}
	// holder tracks, outside the transactions, who is eating with each fork,
	// so a fork granted twice is caught in the act.
	var holder [philosophers]atomic.Int32

	eaten := make([]int, philosophers)
	var wg sync.WaitGroup
	for i := 0; i < philosophers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			left, right := taken[i], taken[(i+1)%philosophers]
			pickUp := func(tx *stm.DTx) error {
				if stm.ReadVar(tx, left) || stm.ReadVar(tx, right) {
					tx.Retry()
				}
				stm.WriteVar(tx, left, true)
				stm.WriteVar(tx, right, true)
				return nil
			}
			putDown := func(tx *stm.DTx) error {
				stm.WriteVar(tx, left, false)
				stm.WriteVar(tx, right, false)
				return nil
			}
			forks := []int{i, (i + 1) % philosophers}
			for n := 0; n < meals; n++ {
				if err := m.Atomically(pickUp); err != nil {
					log.Fatal("pick up: ", err)
				}
				for _, f := range forks {
					if !holder[f].CompareAndSwap(0, int32(i)+1) {
						log.Fatalf("fork %d granted to philosopher %d while philosopher %d eats", f, i, holder[f].Load()-1)
					}
				}
				eaten[i]++        // eating (forks held exclusively) ...
				runtime.Gosched() // ... long enough for a neighbour to try
				for _, f := range forks {
					holder[f].Store(0)
				}
				if err := m.Atomically(putDown); err != nil {
					log.Fatal("put down: ", err)
				}
			}
		}(i)
	}
	wg.Wait()

	totalMeals := 0
	for i, n := range eaten {
		fmt.Printf("philosopher %d ate %d times\n", i, n)
		totalMeals += n
	}
	fmt.Printf("total meals: %d (want %d) — no deadlock, no starvation\n",
		totalMeals, philosophers*meals)
	for i, fork := range taken {
		if fork.Load() {
			log.Fatalf("fork %d not returned", i)
		}
	}
	fmt.Println("all forks back on the table")
}
