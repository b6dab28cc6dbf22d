//go:build race

package hpo

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so a warm workspace cannot be counted on.
const raceEnabled = true
