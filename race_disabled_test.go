//go:build !race

package doppel

// raceEnabled is false in a normal build; see race_enabled_test.go.
const raceEnabled = false
