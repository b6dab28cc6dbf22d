//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so the JSON encoder's pooled state cannot be counted on.
const raceEnabled = true
