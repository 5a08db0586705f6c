//go:build !race

package server

// raceEnabled is false in a normal build; see race_enabled_test.go.
const raceEnabled = false
