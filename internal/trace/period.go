package trace

import "cachemodel/internal/linalg"

// Address-plan periodicity. A reference whose linearised address advances
// by a fixed stride c along one loop dimension revisits the same line
// offset every LineWrapPeriod iterations: translating the iteration by a
// multiple of the period shifts every address by whole memory lines,
// which changes no line-relative relation. The symbolic solver uses this
// period to classify one period of a dimension and replicate the verdicts
// across the rest.

// LineWrapPeriod returns the smallest t > 0 such that stride·t is a
// multiple of lineBytes: translating an access by t iterations along the
// strided dimension shifts its address by whole memory lines. A zero
// stride yields period 1 (the address does not move at all).
func LineWrapPeriod(stride, lineBytes int64) int64 {
	return lineBytes / linalg.GCD(stride, lineBytes)
}
