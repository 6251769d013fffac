package poly

import (
	"testing"

	"cachemodel/internal/ir"
)

// paramSquare is the n×n box: I1, I2 ∈ [1, n].
func paramSquare() *ParamSpace {
	return NewParamSpace([]ParamBound{
		{Lo: ParamAffine{Base: ir.AffineConst(1)}, Hi: ParamAffine{N: 1}},
		{Lo: ParamAffine{Base: ir.AffineConst(1)}, Hi: ParamAffine{N: 1}},
	}, nil)
}

// paramTriangle is the triangle 1 ≤ I1 ≤ n, I1 ≤ I2 ≤ n.
func paramTriangle() *ParamSpace {
	return NewParamSpace([]ParamBound{
		{Lo: ParamAffine{Base: ir.AffineConst(1)}, Hi: ParamAffine{N: 1}},
		{Lo: ParamAffine{Base: ir.AffineIndex(1)}, Hi: ParamAffine{N: 1}},
	}, nil)
}

// checkAgainstEnumeration pins the fitted piecewise count to brute-force
// enumeration of the instantiated space at every n in [lo, hi].
func checkAgainstEnumeration(t *testing.T, ps *ParamSpace, extra []ParamConstraint, pw interface {
	EvalInt(int64) (int64, bool)
}, lo, hi int64) {
	t.Helper()
	for n := lo; n <= hi; n++ {
		sp := ps.At(n)
		sys := make([]ir.NConstraint, len(extra))
		for i, g := range extra {
			sys[i] = g.At(n)
		}
		var want int64
		sp.Enumerate(func(idx []int64) bool {
			for _, c := range sys {
				if !c.Holds(idx) {
					return true
				}
			}
			want++
			return true
		})
		got, ok := pw.EvalInt(n)
		if !ok {
			t.Fatalf("n=%d: no chamber covers it", n)
		}
		if got != want {
			t.Fatalf("n=%d: fitted %d, enumerated %d", n, got, want)
		}
	}
}

func TestCountPolySquare(t *testing.T) {
	pw, err := paramSquare().CountPoly(FullTile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstEnumeration(t, paramSquare(), nil, pw, 1, 40)
	// n² exactly: a single tail chamber of degree 2, period 1.
	got, _ := pw.EvalInt(1000)
	if got != 1000*1000 {
		t.Fatalf("square at 1000: %d", got)
	}
}

func TestCountPolyTriangle(t *testing.T) {
	pw, err := paramTriangle().CountPoly(FullTile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstEnumeration(t, paramTriangle(), nil, pw, 1, 30)
	// n(n+1)/2 at a large size.
	if got, _ := pw.EvalInt(2001); got != 2001*2002/2 {
		t.Fatalf("triangle at 2001: %d", got)
	}
}

func TestCountWithPolyQuasi(t *testing.T) {
	// Points of [1,n]² with 2·I1 ≤ n: count = ⌊n/2⌋·n, a genuine period-2
	// quasi-polynomial.
	extra := []ParamConstraint{{Expr: ParamAffine{
		Base: ir.Affine{Coeff: []int64{-2}}, N: 1,
	}}}
	pw, err := paramSquare().CountWithPoly(FullTile(), extra, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstEnumeration(t, paramSquare(), extra, pw, 1, 33)
	if got, _ := pw.EvalInt(999); got != (999/2)*999 {
		t.Fatalf("odd large: %d", got)
	}
	if got, _ := pw.EvalInt(1000); got != 500*1000 {
		t.Fatalf("even large: %d", got)
	}
}

// TestCountPolyBitIdentityAtFixedN pins the parametric path to the exact
// counter at fixed sizes, including non-powers of two and sizes inside
// the explicit small-n chambers.
func TestCountPolyBitIdentityAtFixedN(t *testing.T) {
	ps := paramTriangle()
	pw, err := ps.CountPoly(FullTile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 2, 3, 5, 7, 12, 17, 31, 63, 64, 65, 100, 127, 1000} {
		want := ps.At(n).CountTile(FullTile())
		got, ok := pw.EvalInt(n)
		if !ok || got != want {
			t.Fatalf("n=%d: poly %d vs exact %d", n, got, want)
		}
	}
}
