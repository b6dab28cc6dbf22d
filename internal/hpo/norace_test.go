//go:build !race

package hpo

const raceEnabled = false
