//go:build race

package dataflow

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
