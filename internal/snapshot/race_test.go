//go:build race

package snapshot_test

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of the objects put back.
const raceEnabled = true
