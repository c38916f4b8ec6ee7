//go:build race

package main

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of the values put back into it, so
// allocation counts do not repeat between runs.
const raceEnabled = true
