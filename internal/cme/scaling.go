package cme

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/linalg"
	"cachemodel/internal/poly"
	"cachemodel/internal/qpoly"
)

// This file implements the closed-form scaling tier — the top rung of the
// solver ladder. Where the exact tier classifies iteration points and the
// PR-5 region tier replicates verdicts across translates at ONE problem
// size, this tier keeps the problem size n itself symbolic: per-reference
// miss counts become piecewise quasi-polynomials of n (Ehrhart), so a
// whole size sweep costs one symbolic solve plus O(1) polynomial
// evaluations instead of one re-enumeration per size.
//
// The construction has three rungs of its own (the eligibility ladder):
//
//  1. Structural affinity. The program family build(n) is instantiated at
//     three consecutive probe sizes; statements, references and reuse
//     structure must match one-to-one and every loop bound and guard
//     constant must move affinely with n (coefficients fixed). This lifts
//     each statement's iteration space to a poly.ParamSpace, whose
//     parametric CountPoly supplies every reference's |RIS| as a
//     quasi-polynomial — the Volume column of any size's report is then
//     O(1).
//
//  2. Pure-cold references. A reference whose every reuse vector has an
//     unsatisfiable producer-existence system is all cold (the PR-5
//     "empty replacement polytope" case). The probe systems are lifted
//     parametrically and checked with CountWithPoly: identically zero
//     for every n means cold = |RIS| in closed form — no solving at any
//     size, ever.
//
//  3. Everything else is fitted per residue class. Counts are
//     quasi-polynomial with the set-wrap period P = numSets·lineBytes/g
//     (g = gcd of the element sizes): within a class n ≡ r (mod P) each
//     counter is eventually a plain polynomial of degree ≤ the number of
//     n-dependent loop dimensions. The solver runs the exact enumerating
//     tier at deg+1 SMALL sample sizes of the class (past the chamber
//     breakpoints where working sets outgrow the cache), interpolates
//     exactly over linalg.Rat, and verifies the polynomial reproduces
//     further holdout solves bit-for-bit before trusting it. Residue
//     classes are fitted lazily — a ladder stepping by P pays for one.
//
// Anything that fails a rung falls through: ineligible families or
// unfitted sizes are answered by the ordinary per-size solver, and the
// Report's Scaling provenance says which path produced the numbers.

// BuildFunc instantiates the program family at one problem size: a fully
// normalised and laid-out program (the same front half the per-size
// solvers consume).
type BuildFunc func(n int64) (*ir.NProgram, error)

// ScalingOptions tunes the scaling solver. The zero value picks
// everything automatically.
type ScalingOptions struct {
	// MinN is the smallest size the solver must answer (default 4).
	// Sizes below it are rejected.
	MinN int64
	// ProbeN is the base of the three structural probe sizes
	// ProbeN, ProbeN+1, ProbeN+2 (default 8).
	ProbeN int64
	// Period overrides the residue period (default: the set-wrap period
	// numSets·lineBytes / gcd(element sizes)).
	Period int64
	// Degree overrides the fitted polynomial degree (default: the maximum
	// number of n-dependent dimensions of any statement).
	Degree int
	// Verify is the number of holdout solves per residue class that the
	// fit must reproduce exactly (default 2).
	Verify int
	// FitN is the smallest sample size used for fitting solves (default:
	// past the capacity chamber, see autoFitN). A failed verification
	// escalates it before giving up on the residue class.
	FitN int64
	// Budget meters the internal exact solves (fit samples and
	// fall-through sizes). Zero = unlimited.
	Budget budget.Budget
}

// ScalingInfo is the Report provenance of the scaling tier.
type ScalingInfo struct {
	// N is the problem size this report answers.
	N int64
	// ClosedForm reports that every reference was evaluated in O(1) from
	// its quasi-polynomial; false means the size fell through to the
	// per-size solver.
	ClosedForm bool
	// ClosedFormRefs / TotalRefs is the per-reference closed-form
	// coverage of this report.
	ClosedFormRefs int
	TotalRefs      int
	// PureColdRefs counts references resolved by parametric counting
	// alone (rung 2), a subset of ClosedFormRefs.
	PureColdRefs int
	// Period and Degree describe the quasi-polynomial shape; Residue is
	// n mod Period.
	Period  int64
	Degree  int
	Residue int64
	// FitSolves is the cumulative number of exact sample solves the
	// solver has spent on fits so far.
	FitSolves int64
	// Why says why the size fell through (empty when ClosedForm).
	Why string
}

// ScalingStats snapshots a solver's work counters.
type ScalingStats struct {
	ResiduesFitted int
	FitSolves      int64
	ClosedEvals    int64
	Fallbacks      int64
}

// refScale is the per-reference symbolic state.
type refScale struct {
	ref      *ir.NRef // the template instantiation's reference (ID donor)
	space    *poly.ParamSpace
	volume   qpoly.Piecewise
	pureCold bool
}

// refFit is one reference's fitted counters within one residue class, as
// power-basis polynomials of n (period-1 quasi-polynomials).
type refFit struct {
	analyzed, hits, cold, repl qpoly.QPoly
}

// residueFit is the closed form of one residue class n ≡ r (mod period).
type residueFit struct {
	ok   bool
	why  string
	base int64 // smallest n the fit is valid for
	refs map[string]*refFit
}

// ScalingSolver is the closed-form scaling tier for one program family ×
// cache configuration. It is safe for concurrent use.
type ScalingSolver struct {
	build BuildFunc
	cfg   cache.Config
	opt   Options
	sopt  ScalingOptions

	eligible bool
	why      string // why the family is ineligible (when !eligible)
	period   int64
	degree   int
	tmpl     *ir.NProgram
	refs     []*refScale // in template program order
	byID     map[string]*refScale

	mu    sync.Mutex
	fits  map[int64]*residueFit
	stats ScalingStats
}

func (o ScalingOptions) withDefaults() ScalingOptions {
	if o.MinN == 0 {
		o.MinN = 4
	}
	if o.ProbeN == 0 {
		o.ProbeN = 8
	}
	if o.Verify == 0 {
		o.Verify = 2
	}
	return o
}

// PrepareScaling probes the program family and builds the scaling solver.
// An error means the probes themselves failed (bad build function or
// invalid configuration); a structurally ineligible family is NOT an
// error — the solver is returned with ClosedFormEligible() == false and
// answers every size by fall-through.
func PrepareScaling(build BuildFunc, cfg cache.Config, opt Options, sopt ScalingOptions) (*ScalingSolver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sopt = sopt.withDefaults()
	s := &ScalingSolver{build: build, cfg: cfg, opt: opt, sopt: sopt,
		fits: map[int64]*residueFit{},
		byID: map[string]*refScale{},
	}
	if err := s.probe(); err != nil {
		return nil, err
	}
	return s, nil
}

// ClosedFormEligible reports whether the family passed the structural
// probes; Why says what failed when it did not.
func (s *ScalingSolver) ClosedFormEligible() bool { return s.eligible }

// Why returns the ineligibility reason (empty when eligible).
func (s *ScalingSolver) Why() string { return s.why }

// Period returns the residue period of the fitted quasi-polynomials.
func (s *ScalingSolver) Period() int64 { return s.period }

// Stats snapshots the work counters.
func (s *ScalingSolver) Stats() ScalingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ResiduesFitted = len(s.fits)
	return st
}

// ineligible marks the whole family as fall-through-only.
func (s *ScalingSolver) ineligible(format string, args ...any) {
	s.eligible = false
	s.why = fmt.Sprintf(format, args...)
}

// probe instantiates the family at three consecutive sizes and lifts the
// structure to parameter space (rungs 1 and 2 of the eligibility ladder).
func (s *ScalingSolver) probe() error {
	n0 := s.sopt.ProbeN
	var nps [3]*ir.NProgram
	var preps [3]*Prepared
	for i := range nps {
		np, err := s.build(n0 + int64(i))
		if err != nil {
			return fmt.Errorf("cme: scaling probe at n=%d: %w", n0+int64(i), err)
		}
		prep, err := Prepare(np, s.opt)
		if err != nil {
			return fmt.Errorf("cme: scaling probe at n=%d: %w", n0+int64(i), err)
		}
		nps[i], preps[i] = np, prep
	}
	s.tmpl = nps[0]

	// Residue period: the set-wrap period of the cache geometry over the
	// finest element granularity. Every affine address term a·n^k + ...
	// repeats mod numSets·lineBytes when n advances by it.
	s.period = s.sopt.Period
	if s.period == 0 {
		setspan := s.cfg.NumSets() * s.cfg.LineBytes
		g := setspan
		for _, arr := range s.tmpl.Arrays {
			g = linalg.GCD(g, arr.ElemSize)
		}
		if g == 0 {
			g = 1
		}
		s.period = setspan / g
	}
	if s.period < 1 {
		s.period = 1
	}

	// Rung 1: structural match + affine lift of every statement space.
	if len(nps[1].Stmts) != len(nps[0].Stmts) || len(nps[2].Stmts) != len(nps[0].Stmts) ||
		len(nps[1].Refs) != len(nps[0].Refs) || len(nps[2].Refs) != len(nps[0].Refs) {
		s.ineligible("statement/reference structure varies with n")
		return nil
	}
	spaces := make(map[*ir.NStmt]*poly.ParamSpace, len(nps[0].Stmts))
	maxNDims := 0
	for i, st := range nps[0].Stmts {
		st1, st2 := nps[1].Stmts[i], nps[2].Stmts[i]
		ps, ok := liftSpace(st, st1, st2, n0)
		if !ok {
			s.ineligible("statement %s: bounds or guards are not affine in n", st.Name)
			return nil
		}
		spaces[st] = ps
		nd := 0
		for _, b := range ps.Bounds {
			if b.Lo.IsParam() || b.Hi.IsParam() {
				nd++
			}
		}
		if nd > maxNDims {
			maxNDims = nd
		}
	}
	s.degree = s.sopt.Degree
	if s.degree == 0 {
		s.degree = maxNDims
	}
	if s.degree == 0 {
		s.degree = 1 // constant-size family: still fit a sanity slope
	}

	// Volume polynomials per reference (rung 1 payoff), and the pure-cold
	// classification (rung 2).
	sym := make([]map[*ir.NRef]*refSym, 3)
	for i, p := range preps {
		sym[i] = p.lineState(s.cfg.LineBytes).symInfo()
	}
	fitOpt := poly.FitOptions{MinN: s.sopt.MinN}
	for i, r := range nps[0].Refs {
		r1, r2 := nps[1].Refs[i], nps[2].Refs[i]
		if r.ID != r1.ID || r.ID != r2.ID {
			s.ineligible("reference order varies with n")
			return nil
		}
		ps := spaces[r.Stmt]
		vol, err := ps.CountPoly(poly.FullTile(), fitOpt)
		if err != nil {
			s.ineligible("reference %s: volume is not quasi-polynomial: %v", r.ID, err)
			return nil
		}
		rs := &refScale{ref: r, space: ps, volume: vol}
		rs.pureCold = s.liftPureCold(ps, fitOpt,
			[3]*ir.NRef{r, r1, r2}, [3]*ir.NProgram{nps[0], nps[1], nps[2]}, sym, preps)
		s.refs = append(s.refs, rs)
		s.byID[r.ID] = rs
	}
	s.eligible = true
	return nil
}

// liftSpace lifts one statement's bounds and guards to parameter space by
// differencing three consecutive instantiations: coefficients must agree
// and constants must advance by the same integer step.
func liftSpace(st0, st1, st2 *ir.NStmt, n0 int64) (*poly.ParamSpace, bool) {
	if st0.Depth() != st1.Depth() || st0.Depth() != st2.Depth() ||
		len(st0.Guards) != len(st1.Guards) || len(st0.Guards) != len(st2.Guards) {
		return nil, false
	}
	bounds := make([]poly.ParamBound, st0.Depth())
	for k := range bounds {
		lo, ok1 := liftAffine(st0.Bounds[k].Lo, st1.Bounds[k].Lo, st2.Bounds[k].Lo, n0)
		hi, ok2 := liftAffine(st0.Bounds[k].Hi, st1.Bounds[k].Hi, st2.Bounds[k].Hi, n0)
		if !ok1 || !ok2 {
			return nil, false
		}
		bounds[k] = poly.ParamBound{Lo: lo, Hi: hi}
	}
	guards := make([]poly.ParamConstraint, len(st0.Guards))
	for i := range guards {
		g0, g1, g2 := st0.Guards[i], st1.Guards[i], st2.Guards[i]
		if g0.IsEq != g1.IsEq || g0.IsEq != g2.IsEq {
			return nil, false
		}
		e, ok := liftAffine(g0.Expr, g1.Expr, g2.Expr, n0)
		if !ok {
			return nil, false
		}
		guards[i] = poly.ParamConstraint{Expr: e, IsEq: g0.IsEq}
	}
	return poly.NewParamSpace(bounds, guards), true
}

// liftAffine recovers c(n) = base + step·n from three consecutive
// observations, requiring equal index coefficients and a consistent step.
func liftAffine(a0, a1, a2 ir.Affine, n0 int64) (poly.ParamAffine, bool) {
	d := a0.MaxDepthUsed()
	if a1.MaxDepthUsed() != d || a2.MaxDepthUsed() != d {
		return poly.ParamAffine{}, false
	}
	for k := 1; k <= d; k++ {
		if a0.At(k) != a1.At(k) || a0.At(k) != a2.At(k) {
			return poly.ParamAffine{}, false
		}
	}
	step := a1.Const - a0.Const
	if a2.Const-a1.Const != step {
		return poly.ParamAffine{}, false
	}
	base := ir.Affine{Const: a0.Const - step*n0, Coeff: append([]int64(nil), a0.Coeff...)}
	return poly.ParamAffine{Base: base, N: step}, true
}

// liftPureCold decides rung 2 for one reference: all three probes must
// classify it all-cold, and every reuse vector's producer-existence
// system must lift to parameter space and count zero for every n. A
// false return is not an error — the reference just takes the fitted
// path.
func (s *ScalingSolver) liftPureCold(ps *poly.ParamSpace, fitOpt poly.FitOptions,
	rs [3]*ir.NRef, nps [3]*ir.NProgram, sym []map[*ir.NRef]*refSym, preps [3]*Prepared) bool {

	for i := range rs {
		if rsym := sym[i][rs[i]]; rsym == nil || !rsym.allCold {
			return false
		}
	}
	// allCold already certifies each probe's systems are unsatisfiable at
	// its own size; the parametric lift extends that to every size.
	depth := rs[0].Stmt.Depth()
	var vecs [3][][]ir.NConstraint
	for i := range rs {
		ls := preps[i].lineState(s.cfg.LineBytes)
		for _, v := range ls.vecs[rs[i]] {
			sys, ok := producerSystem(v, depth)
			if !ok {
				return false
			}
			vecs[i] = append(vecs[i], sys)
		}
	}
	if len(vecs[0]) != len(vecs[1]) || len(vecs[0]) != len(vecs[2]) {
		return false
	}
	for j := range vecs[0] {
		if len(vecs[1][j]) != len(vecs[0][j]) || len(vecs[2][j]) != len(vecs[0][j]) {
			return false
		}
		sys := make([]poly.ParamConstraint, len(vecs[0][j]))
		for c := range vecs[0][j] {
			c0, c1, c2 := vecs[0][j][c], vecs[1][j][c], vecs[2][j][c]
			if c0.IsEq != c1.IsEq || c0.IsEq != c2.IsEq {
				return false
			}
			e, ok := liftAffine(c0.Expr, c1.Expr, c2.Expr, s.sopt.ProbeN)
			if !ok {
				return false
			}
			sys[c] = poly.ParamConstraint{Expr: e, IsEq: c0.IsEq}
		}
		cnt, err := ps.CountWithPoly(poly.FullTile(), sys, fitOpt)
		if err != nil || !cnt.IsZero() {
			return false
		}
	}
	return true
}

// autoFitN places the fit window past the chamber breakpoints: beyond the
// size where every array row spans more lines than the cache holds, the
// capacity-transition chambers are behind us. One period of slack keeps
// the first sample clear of the seam.
func (s *ScalingSolver) autoFitN() int64 {
	if s.sopt.FitN != 0 {
		return s.sopt.FitN
	}
	fitN := s.period
	if lines := s.cfg.SizeBytes / s.cfg.LineBytes; lines > fitN {
		fitN = lines
	}
	if fitN < 2*s.sopt.MinN {
		fitN = 2 * s.sopt.MinN
	}
	return fitN
}

// MinClosedN returns a lower bound on the sizes the closed form can
// cover: sampled fits are anchored at or beyond the fit window, so
// EvalClosedCtx below this bound always reports ok=false (and spends
// nothing). Callers with a known size range can use it to skip the
// closed tier up front.
func (s *ScalingSolver) MinClosedN() int64 {
	n := s.sopt.MinN
	if s.needsFit() {
		if f := s.autoFitN(); f > n {
			n = f
		}
	}
	return n
}

// solveExactAt runs the ordinary exact tier at one size.
func (s *ScalingSolver) solveExactAt(ctx context.Context, n int64) (*Report, error) {
	np, err := s.build(n)
	if err != nil {
		return nil, err
	}
	a, err := New(np, s.cfg, s.opt)
	if err != nil {
		return nil, err
	}
	return a.FindMissesCtx(ctx, s.sopt.Budget)
}

// fitResidue lazily builds (and caches) the closed form of one residue
// class from exact sample solves. It is called with s.mu NOT held.
func (s *ScalingSolver) fitResidue(ctx context.Context, r int64) (*residueFit, error) {
	s.mu.Lock()
	if f, ok := s.fits[r]; ok {
		s.mu.Unlock()
		return f, nil
	}
	s.mu.Unlock()

	f, solves, err := s.fitResidueUncached(ctx, r)
	if err != nil {
		return nil, err // budget/cancellation: don't cache, don't fall back
	}
	s.mu.Lock()
	if prev, ok := s.fits[r]; ok { // another goroutine won the race
		s.mu.Unlock()
		return prev, nil
	}
	s.fits[r] = f
	s.stats.FitSolves += solves
	s.mu.Unlock()
	mScalingFits.Inc()
	mScalingFitSolves.Add(solves)
	return f, nil
}

// needsFit reports whether any reference actually needs sampled fitting
// (pure-cold references are answered by counting alone).
func (s *ScalingSolver) needsFit() bool {
	for _, rs := range s.refs {
		if !rs.pureCold {
			return true
		}
	}
	return false
}

func (s *ScalingSolver) fitResidueUncached(ctx context.Context, r int64) (*residueFit, int64, error) {
	if !s.needsFit() {
		return &residueFit{ok: true, base: s.sopt.MinN, refs: map[string]*refFit{}}, 0, nil
	}
	fitN := s.autoFitN()
	var solves int64
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, n, err := s.tryFit(ctx, r, fitN)
		solves += n
		if err == nil {
			return f, solves, nil
		}
		if ctx.Err() != nil {
			return nil, solves, err
		}
		lastErr = err
		fitN *= 2 // the chamber guess was too low: push the window out
	}
	return &residueFit{ok: false, why: lastErr.Error()}, solves, nil
}

// tryFit samples degree+1+verify sizes of the class at and beyond fitN,
// interpolates each non-cold reference's counters exactly and verifies
// the holdout solves reproduce bit-for-bit. Pure-cold references are
// cross-checked against their counting closed form instead.
func (s *ScalingSolver) tryFit(ctx context.Context, r, fitN int64) (*residueFit, int64, error) {
	nSamples := s.degree + 1 + s.sopt.Verify
	base := fitN + mod64(r-fitN, s.period)
	type sampleRep struct {
		n   int64
		rep *Report
	}
	var solves int64
	samples := make([]sampleRep, 0, nSamples)
	for k := 0; k < nSamples; k++ {
		n := base + int64(k)*s.period
		rep, err := s.solveExactAt(ctx, n)
		solves++
		if err != nil {
			return nil, solves, err
		}
		samples = append(samples, sampleRep{n: n, rep: rep})
	}

	f := &residueFit{ok: true, base: base, refs: make(map[string]*refFit, len(s.refs))}
	for _, rs := range s.refs {
		id := rs.ref.ID
		var an, hi, co, re []qpoly.Sample
		for _, sm := range samples {
			rr := findRef(sm.rep, id)
			if rr == nil || !rr.Complete || rr.Tier != TierExact {
				return nil, solves, fmt.Errorf("sample solve at n=%d did not complete exactly for %s", sm.n, id)
			}
			if vol, ok := rs.volume.EvalInt(sm.n); !ok || vol != rr.Volume {
				return nil, solves, fmt.Errorf("volume polynomial of %s diverges at n=%d: poly %d, exact %d",
					id, sm.n, vol, rr.Volume)
			}
			if rs.pureCold {
				if rr.Hits != 0 || rr.Repl != 0 || rr.Cold != rr.Volume {
					return nil, solves, fmt.Errorf("pure-cold closed form of %s diverges at n=%d", id, sm.n)
				}
				continue
			}
			an = append(an, qpoly.Sample{N: sm.n, V: linalg.RatInt(rr.Analyzed)})
			hi = append(hi, qpoly.Sample{N: sm.n, V: linalg.RatInt(rr.Hits)})
			co = append(co, qpoly.Sample{N: sm.n, V: linalg.RatInt(rr.Cold)})
			re = append(re, qpoly.Sample{N: sm.n, V: linalg.RatInt(rr.Repl)})
		}
		if rs.pureCold {
			continue
		}
		rf := &refFit{}
		var err error
		if rf.analyzed, err = fitCounter(s.degree, an); err != nil {
			return nil, solves, fmt.Errorf("ref %s analyzed: %w", id, err)
		}
		if rf.hits, err = fitCounter(s.degree, hi); err != nil {
			return nil, solves, fmt.Errorf("ref %s hits: %w", id, err)
		}
		if rf.cold, err = fitCounter(s.degree, co); err != nil {
			return nil, solves, fmt.Errorf("ref %s cold: %w", id, err)
		}
		if rf.repl, err = fitCounter(s.degree, re); err != nil {
			return nil, solves, fmt.Errorf("ref %s repl: %w", id, err)
		}
		f.refs[id] = rf
	}
	return f, solves, nil
}

// fitCounter interpolates one counter as a plain polynomial (the residue
// class is fixed, so the quasi-period is quotiented out).
func fitCounter(deg int, samples []qpoly.Sample) (qpoly.QPoly, error) {
	coef, err := qpoly.FitPoly(deg, samples)
	if err != nil {
		return qpoly.QPoly{}, err
	}
	return qpoly.New([][]linalg.Rat{coef}), nil
}

func findRef(rep *Report, id string) *RefReport {
	for _, rr := range rep.Refs {
		if rr.Ref.ID == id {
			return rr
		}
	}
	return nil
}

func mod64(n, m int64) int64 {
	v := n % m
	if v < 0 {
		v += m
	}
	return v
}

// EvalClosedCtx evaluates the closed form at size n without ever solving
// at n itself: it may spend fit solves (at small sample sizes) the first
// time a residue class is touched, but never enumerates size n. ok
// reports whether the closed form covers n; (nil, false, nil) means the
// caller should fall through.
func (s *ScalingSolver) EvalClosedCtx(ctx context.Context, n int64) (*Report, bool, error) {
	if !s.eligible || n < s.sopt.MinN {
		return nil, false, nil
	}
	// Residue-class fits are anchored at or beyond the fit window
	// (tryFit's base ≥ fitN), so when sampled fitting is needed no fit can
	// ever cover a smaller n: refuse before spending fit solves that are
	// guaranteed wasted. Pure-cold-only programs fit for free from MinN.
	if s.needsFit() && n < s.autoFitN() {
		return nil, false, nil
	}
	start := time.Now()
	r := mod64(n, s.period)
	fit, err := s.fitResidue(ctx, r)
	if err != nil {
		return nil, false, err
	}
	if !fit.ok || n < fit.base {
		return nil, false, nil
	}
	rep := &Report{Config: s.cfg, Tier: TierExact,
		Scaling: s.info(n, true, "")}
	for _, rs := range s.refs {
		vol, ok := rs.volume.EvalInt(n)
		if !ok {
			return nil, false, nil
		}
		rr := &RefReport{Ref: rs.ref, Volume: vol, Tier: TierExact,
			Complete: true, ClosedForm: true}
		if rs.pureCold {
			rr.Analyzed, rr.Cold = vol, vol
		} else {
			rf := fit.refs[rs.ref.ID]
			if rf == nil {
				return nil, false, nil
			}
			var okA, okH, okC, okR bool
			rr.Analyzed, okA = rf.analyzed.EvalInt(n)
			rr.Hits, okH = rf.hits.EvalInt(n)
			rr.Cold, okC = rf.cold.EvalInt(n)
			rr.Repl, okR = rf.repl.EvalInt(n)
			// A non-integer value or a broken count identity means the
			// polynomial left its chamber: refuse rather than mispredict.
			if !okA || !okH || !okC || !okR ||
				rr.Analyzed != vol || rr.Hits+rr.Cold+rr.Repl != rr.Analyzed ||
				rr.Hits < 0 || rr.Cold < 0 || rr.Repl < 0 {
				return nil, false, nil
			}
		}
		rep.Refs = append(rep.Refs, rr)
	}
	rep.Elapsed = time.Since(start)
	s.mu.Lock()
	s.stats.ClosedEvals++
	s.mu.Unlock()
	mScalingEvals.Inc()
	return rep, true, nil
}

// info assembles the provenance block (called with s.mu not held).
func (s *ScalingSolver) info(n int64, closed bool, why string) *ScalingInfo {
	cold := 0
	for _, rs := range s.refs {
		if rs.pureCold {
			cold++
		}
	}
	total := len(s.refs)
	if total == 0 && s.tmpl != nil {
		total = len(s.tmpl.Refs)
	}
	closedRefs := 0
	if closed {
		closedRefs = total
	}
	st := s.Stats()
	return &ScalingInfo{N: n, ClosedForm: closed,
		ClosedFormRefs: closedRefs, TotalRefs: total, PureColdRefs: cold,
		Period: s.period, Degree: s.degree, Residue: mod64(n, max64(s.period, 1)),
		FitSolves: st.FitSolves, Why: why}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// EvalCtx answers one size: closed form when the ladder allows it,
// otherwise graceful fall-through to the per-size exact solver (with the
// fall-through recorded in the report's Scaling provenance).
func (s *ScalingSolver) EvalCtx(ctx context.Context, n int64) (*Report, error) {
	rep, ok, err := s.EvalClosedCtx(ctx, n)
	if err != nil {
		return nil, err
	}
	if ok {
		return rep, nil
	}
	why := s.why
	if why == "" {
		why = s.fallbackWhy(n)
	}
	rep, err = s.solveExactAt(ctx, n)
	if rep != nil {
		rep.Scaling = s.info(n, false, why)
	}
	s.mu.Lock()
	s.stats.Fallbacks++
	s.mu.Unlock()
	mScalingFallbacks.Inc()
	return rep, err
}

func (s *ScalingSolver) fallbackWhy(n int64) string {
	if n < s.sopt.MinN {
		return fmt.Sprintf("n=%d below MinN=%d", n, s.sopt.MinN)
	}
	s.mu.Lock()
	f := s.fits[mod64(n, s.period)]
	s.mu.Unlock()
	switch {
	case f == nil:
		return "residue class not fitted"
	case !f.ok:
		return "residue class fit failed: " + f.why
	default:
		return fmt.Sprintf("n=%d below the fitted chamber base %d", n, f.base)
	}
}

// SolveLadder answers a whole size ladder. Sizes sharing a residue class
// mod Period share one fit; the reports come back index-aligned with ns.
func (s *ScalingSolver) SolveLadder(ctx context.Context, ns []int64) ([]*Report, error) {
	out := make([]*Report, len(ns))
	for i, n := range ns {
		rep, err := s.EvalCtx(ctx, n)
		if err != nil {
			return out, err
		}
		out[i] = rep
	}
	return out, nil
}

// MissPoly is the public closed form of one reference: the volume
// quasi-polynomial plus the per-residue-class counter polynomials fitted
// so far.
type MissPoly struct {
	RefID    string
	PureCold bool
	Volume   qpoly.Piecewise
	// Residues maps n mod Period to the class's counter polynomials
	// (valid for n ≥ Base in the class).
	Residues map[int64]MissPolyClass
}

// MissPolyClass is one residue class's closed form.
type MissPolyClass struct {
	Base                       int64
	Analyzed, Hits, Cold, Repl qpoly.QPoly
}

// MissPolys returns the per-reference closed forms accumulated so far,
// sorted by reference ID. Pure-cold references carry no residue
// classes — their counters are the volume itself.
func (s *ScalingSolver) MissPolys() []MissPoly {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MissPoly, 0, len(s.refs))
	for _, rs := range s.refs {
		mp := MissPoly{RefID: rs.ref.ID, PureCold: rs.pureCold,
			Volume: rs.volume, Residues: map[int64]MissPolyClass{}}
		for r, f := range s.fits {
			if !f.ok {
				continue
			}
			if rf := f.refs[rs.ref.ID]; rf != nil {
				mp.Residues[r] = MissPolyClass{Base: f.base,
					Analyzed: rf.analyzed, Hits: rf.hits, Cold: rf.cold, Repl: rf.repl}
			}
		}
		out = append(out, mp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RefID < out[j].RefID })
	return out
}
