package poly

import (
	"fmt"

	"cachemodel/internal/ir"
	"cachemodel/internal/linalg"
	"cachemodel/internal/qpoly"
)

// This file generalises the lattice-point counting engine to bounds and
// guards that are affine in one symbolic parameter n (the problem size):
// instead of a number, a count becomes a piecewise quasi-polynomial of n
// (Ehrhart). The counts are recovered by exact rational interpolation —
// instantiate the space at enough sample sizes per residue class of the
// coefficient period, fit with qpoly.FitPoly, and verify the fit against
// further samples — rather than by a full Barvinok decomposition: the
// spaces here are tiny (depth ≤ 6), so sampled instantiation is cheap and
// the verification step keeps the result trustworthy.

// ParamAffine is an affine form over the loop indices plus a symbolic
// parameter: value(idx, n) = Base(idx) + N·n.
type ParamAffine struct {
	Base ir.Affine
	N    int64
}

// At instantiates the form at parameter value n.
func (pa ParamAffine) At(n int64) ir.Affine { return pa.Base.AddConst(pa.N * n) }

// IsParam reports whether the form actually depends on the parameter.
func (pa ParamAffine) IsParam() bool { return pa.N != 0 }

// ParamBound is a loop-bound pair affine in the parameter.
type ParamBound struct {
	Lo, Hi ParamAffine
}

// ParamConstraint is Expr ≥ 0 (or == 0 when IsEq) with Expr affine in the
// parameter.
type ParamConstraint struct {
	Expr ParamAffine
	IsEq bool
}

// At instantiates the constraint at parameter value n.
func (pc ParamConstraint) At(n int64) ir.NConstraint {
	return ir.NConstraint{Expr: pc.Expr.At(n), IsEq: pc.IsEq}
}

// ParamSpace is an iteration space whose bounds and guards are affine in
// one symbolic parameter.
type ParamSpace struct {
	Depth  int
	Bounds []ParamBound
	Guards []ParamConstraint
}

// NewParamSpace builds a ParamSpace (depth = len(bounds)).
func NewParamSpace(bounds []ParamBound, guards []ParamConstraint) *ParamSpace {
	return &ParamSpace{Depth: len(bounds), Bounds: bounds, Guards: guards}
}

// At instantiates the space at parameter value n.
func (ps *ParamSpace) At(n int64) *Space {
	bounds := make([]ir.NBound, len(ps.Bounds))
	for i, b := range ps.Bounds {
		bounds[i] = ir.NBound{Lo: b.Lo.At(n), Hi: b.Hi.At(n)}
	}
	guards := make([]ir.NConstraint, len(ps.Guards))
	for i, g := range ps.Guards {
		guards[i] = g.At(n)
	}
	return New(bounds, guards)
}

// Fit shape: every residue class is fitted at degree Depth (the Ehrhart
// maximum) and must reproduce fitVerify further holdout samples exactly.
// The escalation loop gives up past maxFitPeriod and maxFitBase: beyond
// them the space is declared non-quasi-polynomial over the sampled range.
const (
	fitVerify    = 2
	maxFitPeriod = 256
	maxFitBase   = 1 << 13
	maxSmallN    = 1 << 12 // explicit per-point chambers below the tail
)

// autoPeriod guesses the coefficient period: quasi-periodic behaviour
// enters through floor/ceil divisions by index coefficients, so the lcm
// of their magnitudes (capped) is the natural first guess.
func (ps *ParamSpace) autoPeriod() int64 {
	p := int64(1)
	acc := func(a ir.Affine) {
		for d := 1; d <= a.MaxDepthUsed(); d++ {
			if c := a.At(d); c != 0 {
				if l := linalg.LCM(p, c); l != 0 && l <= maxFitPeriod {
					p = l
				}
			}
		}
	}
	for _, b := range ps.Bounds {
		acc(b.Lo.Base)
		acc(b.Hi.Base)
	}
	for _, g := range ps.Guards {
		acc(g.Expr.Base)
	}
	return p
}

// autoFitBase places the polynomial tail beyond the chamber breakpoints,
// which are governed by the affine constants: past max|const| (plus a
// period of slack) the relative order of the bound expressions is fixed.
func (ps *ParamSpace) autoFitBase(period, minN int64) int64 {
	var m int64
	acc := func(pa ParamAffine) {
		if c := abs(pa.Base.Const); c > m {
			m = c
		}
	}
	for _, b := range ps.Bounds {
		acc(b.Lo)
		acc(b.Hi)
	}
	for _, g := range ps.Guards {
		acc(g.Expr)
	}
	base := 2*m + 2*period + int64(ps.Depth) + 2
	if base < minN {
		base = minN
	}
	return base
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// CountPoly returns the tile's point count as a piecewise quasi-polynomial
// of the parameter, valid for every n ≥ minN.
func (ps *ParamSpace) CountPoly(t Tile, minN int64) (qpoly.Piecewise, error) {
	return ps.fit(func(n int64) int64 { return ps.At(n).CountTile(t) }, minN)
}

// CountWithPoly is the parametric CountWith: the count of tile points
// additionally satisfying every constraint in extra, as a piecewise
// quasi-polynomial of the parameter valid for every n ≥ minN.
func (ps *ParamSpace) CountWithPoly(t Tile, extra []ParamConstraint, minN int64) (qpoly.Piecewise, error) {
	return ps.fit(func(n int64) int64 {
		sys := make([]ir.NConstraint, len(extra))
		for i, g := range extra {
			sys[i] = g.At(n)
		}
		return ps.At(n).CountWith(t, sys)
	}, minN)
}

// fit recovers eval as a piecewise quasi-polynomial: a polynomial tail
// chamber fitted per residue class and verified against holdout samples,
// plus explicit per-point chambers covering the sizes from minN up to the
// tail. A verification failure escalates — first pushing the tail start
// outward (the breakpoint guess was too low), then doubling the period —
// before giving up.
func (ps *ParamSpace) fit(eval func(n int64) int64, minN int64) (qpoly.Piecewise, error) {
	period := ps.autoPeriod()
	baseN := ps.autoFitBase(period, minN)
	fitN := baseN
	var lastErr error
	for {
		q, err := fitTail(eval, period, ps.Depth, fitN)
		if err == nil {
			return assemble(eval, q, minN, fitN)
		}
		lastErr = err
		switch {
		case fitN < maxFitBase:
			fitN *= 2
		case period < maxFitPeriod:
			period *= 2
			fitN = baseN
		default:
			return qpoly.Piecewise{}, fmt.Errorf("poly: count is not quasi-polynomial up to period %d, base %d: %w",
				period, fitN, lastErr)
		}
	}
}

// fitTail fits one quasi-polynomial with the given period and degree from
// samples at the first deg+1+fitVerify sizes ≥ fitN of every residue class.
func fitTail(eval func(n int64) int64, period int64, deg int, fitN int64) (qpoly.QPoly, error) {
	var samples []qpoly.Sample
	for r := int64(0); r < period; r++ {
		n := fitN + qpoly.Mod(r-fitN, period)
		for k := 0; k < deg+1+fitVerify; k++ {
			samples = append(samples, qpoly.Sample{N: n, V: linalg.RatInt(eval(n))})
			n += period
		}
	}
	return qpoly.Fit(period, deg, samples)
}

// assemble glues the verified tail to explicit per-point chambers for the
// small sizes the fit window does not cover.
func assemble(eval func(n int64) int64, tail qpoly.QPoly, minN, fitN int64) (qpoly.Piecewise, error) {
	if fitN-minN > maxSmallN {
		return qpoly.Piecewise{}, fmt.Errorf("poly: %d explicit small sizes exceed the cap %d",
			fitN-minN, maxSmallN)
	}
	pieces := []qpoly.Piece{{Lo: fitN, Hi: qpoly.Inf, Poly: tail}}
	for n := minN; n < fitN; n++ {
		pieces = append(pieces, qpoly.Piece{Lo: n, Hi: n, Poly: qpoly.ConstInt(eval(n))})
	}
	pw, err := qpoly.FromPieces(pieces)
	if err != nil {
		return qpoly.Piecewise{}, err
	}
	return pw.Canon(), nil
}
