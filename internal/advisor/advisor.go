// Package advisor turns the analytical model into optimisation guidance —
// the use the paper motivates ("our method can be used to guide compiler
// locality optimisations") and its authors' follow-up work (Ghosh et al.,
// "Automated cache optimizations using CME driven diagnosis") develops.
//
// Two facilities are provided:
//
//   - Diagnose samples each reference's iteration space and attributes
//     every replacement miss to the arrays whose lines supplied the
//     evicting set contentions, yielding an interference matrix a
//     compiler (or human) can act on;
//   - SearchPadding and SearchParameter drive the analytical model over a
//     transformation space (inter-array pads, tile sizes, ...) and return
//     the predicted-best choice, without ever simulating.
package advisor

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/layout"
	"cachemodel/internal/poly"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
)

// Interference is one cell of the interference matrix: sampled evidence
// that Interferer's lines evict Victim's data.
type Interference struct {
	Victim     *ir.Array
	Interferer *ir.Array
	// Contentions counts contending-line observations in sampled
	// replacement misses, scaled to the victim's full access count.
	Contentions float64
}

// Diagnosis summarises a sampled diagnostic pass.
type Diagnosis struct {
	Config cache.Config
	// Estimated access-weighted totals.
	Accesses float64
	Hits     float64
	Cold     float64
	Repl     float64
	// Matrix is the interference list, heaviest first.
	Matrix []Interference
	// SelfInterference is the portion of replacement misses whose
	// contentions come from the victim array itself.
	SelfInterference float64
	Elapsed          time.Duration
}

// MissRatio returns the diagnosed miss ratio in percent.
func (d *Diagnosis) MissRatio() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return 100 * (d.Cold + d.Repl) / d.Accesses
}

// Top returns the n heaviest interference pairs.
func (d *Diagnosis) Top(n int) []Interference {
	if n > len(d.Matrix) {
		n = len(d.Matrix)
	}
	return d.Matrix[:n]
}

// Diagnose runs a sampled diagnostic analysis: every reference is sampled
// per the plan, each sampled access classified with attribution, and the
// contention evidence aggregated per (victim array, interferer array).
func Diagnose(np *ir.NProgram, cfg cache.Config, opt cme.Options, plan sampling.Plan) (*Diagnosis, error) {
	return DiagnoseCtx(context.Background(), np, cfg, opt, plan, budget.Budget{})
}

// DiagnoseCtx is Diagnose under a context and a budget, with a checkpoint
// per classified sample point. Diagnosis needs pointwise attribution, so
// there is no cheaper tier to degrade to: an interrupted run returns the
// partial diagnosis (covering the references sampled so far, scaled to
// their access counts) together with ErrCanceled or ErrBudgetExceeded.
func DiagnoseCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) (*Diagnosis, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	a, err := cme.New(np, cfg, opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m := budget.NewMeter(ctx, b)
	var p *budget.Probe
	if !m.Unlimited() {
		p = m.Probe()
		defer p.Drain()
	}
	rng := rand.New(rand.NewSource(20020211)) // the paper's venue date
	d := &Diagnosis{Config: cfg}
	cells := map[[2]*ir.Array]float64{}
	var selfHits float64
	var ierr error

	for _, r := range np.Refs {
		if ierr != nil {
			break
		}
		sp := poly.FromStmt(r.Stmt)
		vol := sp.Volume()
		if vol == 0 {
			continue
		}
		n := plan.SizeFor(vol)
		if !plan.Achievable(vol) {
			if sampling.DefaultFallback.Achievable(vol) {
				n = sampling.DefaultFallback.SizeFor(vol)
			} else {
				n = int(vol)
			}
		}
		pts := sp.Sample(rng, n)
		if len(pts) == 0 {
			continue
		}
		weight := float64(vol) / float64(len(pts)) // scale sample to population
		d.Accesses += float64(vol)
		classified := 0
		for _, idx := range pts {
			if p != nil {
				if ierr = p.Check(1, 0); ierr != nil {
					break
				}
			}
			classified++
			outcome, refs := a.ClassifyDetail(r, idx)
			switch outcome {
			case cme.Hit:
				d.Hits += weight
			case cme.ColdMiss:
				d.Cold += weight
			case cme.ReplacementMiss:
				d.Repl += weight
				for _, ri := range refs {
					cells[[2]*ir.Array{r.Array, ri.Array}] += weight / float64(len(refs))
					if ri.Array == r.Array {
						selfHits += weight / float64(len(refs))
					}
				}
			}
		}
	}
	for k, v := range cells {
		d.Matrix = append(d.Matrix, Interference{Victim: k[0], Interferer: k[1], Contentions: v})
	}
	sort.Slice(d.Matrix, func(i, j int) bool {
		if d.Matrix[i].Contentions != d.Matrix[j].Contentions {
			return d.Matrix[i].Contentions > d.Matrix[j].Contentions
		}
		return d.Matrix[i].Victim.Name < d.Matrix[j].Victim.Name
	})
	if d.Repl > 0 {
		d.SelfInterference = selfHits / d.Repl
	}
	d.Elapsed = time.Since(start)
	return d, ierr
}

// Choice is one evaluated transformation candidate.
type Choice struct {
	Label     string
	MissRatio float64 // predicted, percent
	// ClosedForm reports that the ratio came from O(1) closed-form
	// evaluation rather than an enumerating solve: the scaling tier's
	// quasi-polynomials in SearchParameterCtx (the candidate was dominated
	// under the symbolic estimate, so no per-size solve was spent on it),
	// or the geometry-parametric tier in SearchConfigs (every reference of
	// the geometry answered from a column fit).
	ClosedForm bool
}

// SearchPadding evaluates inter-array paddings analytically and returns
// the candidates sorted by predicted miss ratio (best first). build must
// return a fresh Program each call (layout mutates array bases).
func SearchPadding(build func() *ir.Program, array string, pads []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan) ([]Choice, error) {

	return SearchPaddingCtx(context.Background(), build, array, pads, cfg, opt, plan, budget.Budget{})
}

// SearchPaddingCtx is SearchPadding under a context and a budget. The
// deadline (and the context) spans the whole search; the point and scan
// caps apply per candidate, since each candidate is an independent
// estimate. An interrupted search returns the candidates evaluated so far
// (sorted) together with the interruption error, so a caller can still
// act on the best choice seen.
//
// Unbudgeted searches ride the batch solver: the program is prepared once
// (normalise, reuse vectors, polyhedra) and every padding is a layout
// candidate of one cme.SolveBatch sweep, which keeps the worker pool
// saturated across candidates and shares all geometry-invariant state.
// Budgeted searches keep the per-candidate path, whose incremental
// degradation semantics SolveBatch deliberately does not replicate.
func SearchPaddingCtx(ctx context.Context, build func() *ir.Program, array string, pads []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) ([]Choice, error) {

	if b.IsZero() {
		np, _, err := spec.Pipeline(build(), spec.Front{})
		if err != nil {
			return nil, err
		}
		p, err := cme.Prepare(np, opt)
		if err != nil {
			return nil, err
		}
		cands := make([]cme.Candidate, len(pads))
		for i, pad := range pads {
			cands[i] = cme.Candidate{
				Label:  fmt.Sprintf("pad=%d", pad),
				Config: cfg,
				Layout: &layout.Options{PadOf: map[string]int64{array: pad}},
			}
		}
		reps, err := p.SolveBatch(ctx, cands, cme.BatchOptions{Plan: &plan})
		var out []Choice
		for i, rep := range reps {
			if rep != nil && rep.CompleteRefs() == len(rep.Refs) {
				out = append(out, Choice{Label: cands[i].Label, MissRatio: rep.MissRatio()})
			}
		}
		sortChoices(out)
		return out, err
	}

	var out []Choice
	for _, pad := range pads {
		np, _, err := spec.Pipeline(build(), spec.Front{Layout: layout.Options{PadOf: map[string]int64{array: pad}}})
		if err != nil {
			return nil, err
		}
		rep, err := estimateCtx(ctx, np, cfg, opt, plan, b)
		if err != nil {
			sortChoices(out)
			return out, err
		}
		out = append(out, Choice{Label: fmt.Sprintf("pad=%d", pad), MissRatio: rep})
	}
	sortChoices(out)
	return out, nil
}

// SearchConfigs sweeps cache geometries against one program: the batch
// formulation of the "which cache would this code like" question. The
// program is prepared once; every geometry is one candidate of a single
// SolveBatch sweep. A nil plan solves exactly — and exact sweeps engage
// the geometry-parametric closed-form tier automatically, so a wide
// cache-size column costs a handful of anchor solves plus O(1) per
// remaining geometry (Choice.ClosedForm marks those candidates). Results
// come back sorted by predicted miss ratio, best first.
func SearchConfigs(ctx context.Context, build func() *ir.Program, cfgs []cache.Config,
	opt cme.Options, plan *sampling.Plan) ([]Choice, error) {

	np, _, err := spec.Pipeline(build(), spec.Front{})
	if err != nil {
		return nil, err
	}
	p, err := cme.Prepare(np, opt)
	if err != nil {
		return nil, err
	}
	cands := make([]cme.Candidate, len(cfgs))
	for i, cfg := range cfgs {
		cands[i] = cme.Candidate{Label: cfg.String(), Config: cfg}
	}
	reps, err := p.SolveBatch(ctx, cands, cme.BatchOptions{Plan: plan})
	var out []Choice
	for i, rep := range reps {
		if rep != nil && rep.CompleteRefs() == len(rep.Refs) {
			out = append(out, Choice{Label: cands[i].Label, MissRatio: rep.MissRatio(),
				ClosedForm: rep.Geom.Closed()})
		}
	}
	sortChoices(out)
	return out, err
}

// SearchParameter evaluates a parameterised family of programs (tile
// sizes, loop orders, ...) and returns the candidates sorted by predicted
// miss ratio.
func SearchParameter(build func(param int64) *ir.Program, params []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan) ([]Choice, error) {

	return SearchParameterCtx(context.Background(), build, params, cfg, opt, plan, budget.Budget{})
}

// SearchParameterCtx is SearchParameter under a context and a budget, with
// the same semantics as SearchPaddingCtx: global deadline, per-candidate
// point/scan caps, and partial (sorted) results on interruption.
//
// Unbudgeted searches try the closed-form scaling tier first: when the
// family is affine in the parameter, every candidate is priced by O(1)
// quasi-polynomial evaluation and only the non-dominated (best) candidate
// pays for a per-size solve — the ROADMAP's "prune before paying for
// exact". Families the tier cannot lift (tile sizes inside min() bounds,
// structure changes) take the per-candidate path unchanged.
func SearchParameterCtx(ctx context.Context, build func(param int64) *ir.Program, params []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) ([]Choice, error) {

	if b.IsZero() {
		if out, ok, err := searchParameterClosed(ctx, build, params, cfg, opt, plan); ok {
			return out, err
		}
	}
	var out []Choice
	for _, v := range params {
		np, _, err := spec.Pipeline(build(v), spec.Front{})
		if err != nil {
			return nil, err
		}
		rep, err := estimateCtx(ctx, np, cfg, opt, plan, b)
		if err != nil {
			sortChoices(out)
			return out, err
		}
		out = append(out, Choice{Label: fmt.Sprintf("%d", v), MissRatio: rep})
	}
	sortChoices(out)
	return out, nil
}

// searchParameterClosed is the scaling-tier fast path of
// SearchParameterCtx. ok=false means the family is not liftable (or no
// candidate was covered) and the caller should run the plain search.
func searchParameterClosed(ctx context.Context, build func(param int64) *ir.Program, params []int64,
	cfg cache.Config, opt cme.Options, plan sampling.Plan) ([]Choice, bool, error) {

	s, err := cme.PrepareScaling(func(n int64) (*ir.NProgram, error) {
		np, _, err := spec.Pipeline(build(n), spec.Front{})
		return np, err
	}, cfg, opt, cme.ScalingOptions{})
	if err != nil || !s.ClosedFormEligible() {
		return nil, false, nil
	}
	// The closed form only covers sizes at or beyond the fit window, and a
	// fit costs degree+1+verify exact solves at window-sized samples. When
	// every requested parameter is smaller than that, the "fast path" would
	// cover nothing (or pay far more than the direct solves it replaces):
	// run the plain per-candidate search instead.
	maxParam := int64(0)
	for _, v := range params {
		if v > maxParam {
			maxParam = v
		}
	}
	if maxParam < s.MinClosedN() {
		return nil, false, nil
	}
	type cand struct {
		v      int64
		ratio  float64
		closed bool
	}
	cands := make([]cand, len(params))
	covered := 0
	for i, v := range params {
		cands[i] = cand{v: v}
		rep, ok, err := s.EvalClosedCtx(ctx, v)
		if err != nil || !ok {
			continue // fit failed or out of chamber: priced by a real solve below
		}
		cands[i].ratio, cands[i].closed = rep.MissRatio(), true
		covered++
	}
	if covered == 0 {
		return nil, false, nil
	}
	// The best symbolic candidate is confirmed by the standard estimator;
	// dominated candidates keep their closed-form ratio and skip the solve.
	best := -1
	for i, c := range cands {
		if c.closed && (best < 0 || c.ratio < cands[best].ratio) {
			best = i
		}
	}
	var out []Choice
	for i, c := range cands {
		label := fmt.Sprintf("%d", c.v)
		if c.closed && i != best {
			out = append(out, Choice{Label: label, MissRatio: c.ratio, ClosedForm: true})
			continue
		}
		np, _, err := spec.Pipeline(build(c.v), spec.Front{})
		if err != nil {
			return nil, true, err
		}
		ratio, err := estimateCtx(ctx, np, cfg, opt, plan, budget.Budget{})
		if err != nil {
			sortChoices(out)
			return out, true, err
		}
		out = append(out, Choice{Label: label, MissRatio: ratio})
	}
	sortChoices(out)
	return out, true, nil
}

// Frontier selects the non-dominated prefix of a best-first choice list
// (as returned by the Search* functions): the best max(1, keep) choices
// always survive, plus every further choice whose predicted miss ratio is
// within marginPct percent (relative) of the best. Everything else is
// dominated — a cheaper-tier estimate already places it far enough behind
// the frontier that paying for an exact solve on it cannot change the
// answer. The distributed sweep coordinator uses this to prune a
// candidate grid under the sampled tier before sharding exact solves.
func Frontier(sorted []Choice, keep int, marginPct float64) []Choice {
	if len(sorted) == 0 {
		return nil
	}
	if keep < 1 {
		keep = 1
	}
	cut := sorted[0].MissRatio * (1 + marginPct/100)
	n := 0
	for i, c := range sorted {
		if i < keep || c.MissRatio <= cut {
			n = i + 1
			continue
		}
		break
	}
	return sorted[:n]
}

func sortChoices(cs []Choice) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].MissRatio < cs[j].MissRatio })
}

func estimateCtx(ctx context.Context, np *ir.NProgram, cfg cache.Config, opt cme.Options, plan sampling.Plan, b budget.Budget) (float64, error) {
	a, err := cme.New(np, cfg, opt)
	if err != nil {
		return 0, err
	}
	rep, err := a.EstimateMissesCtx(ctx, b, plan)
	if err != nil {
		return 0, err
	}
	return rep.MissRatio(), nil
}
