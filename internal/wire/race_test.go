//go:build race

package wire

// raceEnabled reports a -race build, whose instrumentation changes what
// the heap holds.
const raceEnabled = true
