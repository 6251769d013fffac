//go:build !race

package poly

// raceEnabled reports that the race detector instruments this test
// binary, which slows code down several-fold and makes it allocate.
const raceEnabled = false
