//go:build !race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build; the benchmark refuses to report numbers under it.
const raceEnabled = false
