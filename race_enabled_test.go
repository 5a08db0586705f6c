//go:build race

package doppel

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation changes allocation counts; the
// allocation-regression assertions skip themselves under it.
const raceEnabled = true
