//go:build race

package shard_test

// raceEnabled reports that the race detector is on; the slowest pinned
// builds skip under its ~10x slowdown.
const raceEnabled = true
