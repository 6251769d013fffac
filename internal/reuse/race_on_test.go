//go:build race

package reuse_test

// raceEnabled reports that the race detector instruments this test
// binary, which slows code down several-fold.
const raceEnabled = true
