package poly

import (
	"testing"

	"cachemodel/internal/ir"
)

// FuzzQPolyVsEnumerate pins parametric counting to brute-force
// enumeration: a small random ParamSpace (depth ≤ 3, bounds affine in n
// with outer-index coupling, plus an optional guard with a non-unit
// coefficient to force genuine quasi-periodicity) is fitted once and then
// evaluated across a ladder of sizes — including non-powers of two and
// the boundary sizes around the explicit-chamber/tail seam — with every
// value compared against walking the instantiated space point by point.
func FuzzQPolyVsEnumerate(f *testing.F) {
	f.Add(uint8(2), int8(1), int8(0), uint8(1), int8(2), uint8(0))
	f.Add(uint8(3), int8(2), int8(-1), uint8(2), int8(3), uint8(1))
	f.Add(uint8(1), int8(1), int8(3), uint8(0), int8(1), uint8(2))
	f.Add(uint8(2), int8(1), int8(-2), uint8(3), int8(-1), uint8(3))

	f.Fuzz(func(t *testing.T, depthRaw uint8, nCoef, conRaw int8, couple uint8, gCoefRaw int8, gMode uint8) {
		depth := int(depthRaw%3) + 1
		nc := int64(nCoef%3) + 1       // Hi's n-coefficient: 1..3
		con := int64(conRaw % 4)       // Hi's constant: -3..3
		gCoef := int64(gCoefRaw%5) - 2 // guard coefficient on the deepest index

		bounds := make([]ParamBound, depth)
		for k := 0; k < depth; k++ {
			lo := ParamAffine{Base: ir.AffineConst(1)}
			if k > 0 && couple&(1<<(k-1)) != 0 {
				lo = ParamAffine{Base: ir.AffineIndex(k)} // I_k ≤ I_{k+1}: triangular
			}
			hi := ParamAffine{Base: ir.AffineConst(con), N: nc}
			bounds[k] = ParamBound{Lo: lo, Hi: hi}
		}
		var guards []ParamConstraint
		if gCoef != 0 && gMode%2 == 1 {
			// gCoef·I_depth ≤ n + 1  (or ≥, by sign): affine in n with a
			// non-unit index coefficient — the quasi-periodic case.
			g := ir.Affine{Const: 1, Coeff: make([]int64, depth)}
			g.Coeff[depth-1] = -gCoef
			guards = append(guards, ParamConstraint{Expr: ParamAffine{Base: g, N: 1}})
		}
		ps := NewParamSpace(bounds, guards)

		pw, err := ps.CountPoly(FullTile(), 1)
		if err != nil {
			// A degenerate family (e.g. always empty past the cap) is a
			// legitimate refusal, not a soundness bug.
			t.Skip(err)
		}
		lo, hi, _ := pw.Domain()
		if hi < lo {
			t.Fatalf("inverted domain [%d, %d]", lo, hi)
		}
		// The ladder: the seam around every chamber boundary, plus
		// non-power-of-two and larger spot sizes.
		ladder := []int64{1, 2, 3, 5, 6, 7, 9, 11, 13, 17, 23, 29, 31, 33, 40, 47, 63, 64, 65}
		for _, p := range pw.Pieces() {
			if p.Lo > 1 {
				ladder = append(ladder, p.Lo-1, p.Lo)
			}
		}
		for _, n := range ladder {
			if n > 70 { // keep brute force bounded
				continue
			}
			got, ok := pw.EvalInt(n)
			if !ok {
				t.Fatalf("n=%d not covered (domain [%d, %d])", n, lo, hi)
			}
			var want int64
			ps.At(n).Enumerate(func([]int64) bool { want++; return true })
			if got != want {
				t.Fatalf("n=%d: quasi-polynomial %d, enumeration %d (space %v)", n, got, want, bounds)
			}
		}
	})
}
