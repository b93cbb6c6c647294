//go:build race

package search

// raceEnabled sizes the tests that the race detector slows most.
const raceEnabled = true
