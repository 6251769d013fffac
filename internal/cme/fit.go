package cme

import (
	"fmt"
	"sort"

	"cachemodel/internal/linalg"
	"cachemodel/internal/qpoly"
)

// The counter fit both closed-form tiers share. The scaling tier fits a
// reference's counters over the problem size N, the geom tier over the
// number of sets; each feeds fitRef the reports of exact anchor solves at
// chosen abscissae and evaluates the result at the sizes it claims. A fit
// refuses rather than guesses: any refusal sends the claimed sizes back to
// an enumerating solver, so it costs work, never a wrong count.

// fitVerify is the number of holdout anchors, beyond the degree+1 that
// determine the polynomial, that every fit must reproduce exactly.
const fitVerify = 2

// refFit is one reference's four counters fitted as plain polynomials of
// the tier's free parameter.
type refFit struct {
	analyzed, hits, cold, repl qpoly.QPoly
}

// census reports whether an anchor's reference report may feed a fit: a
// complete exact census that classified every point, with nothing sampled
// and nothing degraded.
func census(rr *RefReport) bool {
	return rr.Complete && rr.Tier == TierExact && !rr.Sampled && rr.Analyzed == rr.Volume
}

// fitRef fits one reference's counters at degree deg from the anchor
// reports reps, solved at abscissae xs. It refuses (returns an error)
// unless there are at least deg+1+fitVerify anchors, every anchor is a
// census, anchors at equal abscissae agree (they collapse to one sample),
// and every counter is a degree-deg polynomial through the holdouts.
func fitRef(deg int, xs []int64, reps []*RefReport) (*refFit, error) {
	if len(reps) < deg+1+fitVerify {
		return nil, fmt.Errorf("%d anchors, need %d", len(reps), deg+1+fitVerify)
	}
	order := make([]int, len(reps))
	for i, rr := range reps {
		if !census(rr) {
			return nil, fmt.Errorf("anchor at %d is not an exact census", xs[i])
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	var an, hi, co, re []qpoly.Sample
	sample := func(x, v int64) qpoly.Sample { return qpoly.Sample{N: x, V: linalg.RatInt(v)} }
	for k, i := range order {
		x, rr := xs[i], reps[i]
		if k > 0 && x == xs[order[k-1]] {
			if prev := reps[order[k-1]]; rr.Hits != prev.Hits || rr.Cold != prev.Cold ||
				rr.Repl != prev.Repl || rr.Analyzed != prev.Analyzed {
				return nil, fmt.Errorf("anchors at %d disagree", x)
			}
			continue
		}
		an = append(an, sample(x, rr.Analyzed))
		hi = append(hi, sample(x, rr.Hits))
		co = append(co, sample(x, rr.Cold))
		re = append(re, sample(x, rr.Repl))
	}
	f := &refFit{}
	for _, c := range []struct {
		name string
		q    *qpoly.QPoly
		in   []qpoly.Sample
	}{{"analyzed", &f.analyzed, an}, {"hits", &f.hits, hi}, {"cold", &f.cold, co}, {"repl", &f.repl, re}} {
		q, err := fitCounter(deg, c.in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		*c.q = q
	}
	return f, nil
}

// fitCounter interpolates one counter as a plain polynomial through
// qpoly.FitPoly (the tiers fix any residue class before fitting, so the
// quasi-period is quotiented out).
func fitCounter(deg int, samples []qpoly.Sample) (qpoly.QPoly, error) {
	coef, err := qpoly.FitPoly(deg, samples)
	if err != nil {
		return qpoly.QPoly{}, err
	}
	return qpoly.New([][]linalg.Rat{coef}), nil
}

// fill evaluates the fit at x into rr and reports success. The count
// identities must hold — every counter integral and non-negative, and
// hits+cold+repl == analyzed == rr.Volume — or the polynomial has left its
// chamber: fill then refuses and leaves rr untouched.
func (f *refFit) fill(rr *RefReport, x int64) bool {
	an, ok1 := f.analyzed.EvalInt(x)
	hits, ok2 := f.hits.EvalInt(x)
	cold, ok3 := f.cold.EvalInt(x)
	repl, ok4 := f.repl.EvalInt(x)
	if !ok1 || !ok2 || !ok3 || !ok4 || hits < 0 || cold < 0 || repl < 0 ||
		hits+cold+repl != an || an != rr.Volume {
		return false
	}
	rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = an, hits, cold, repl
	closeRef(rr)
	return true
}

// fillPureCold answers a reference no reuse can reach: every access is a
// cold miss.
func fillPureCold(rr *RefReport) {
	rr.Analyzed, rr.Hits, rr.Cold, rr.Repl = rr.Volume, 0, rr.Volume, 0
	closeRef(rr)
}

// closeRef stamps a closed-form answer's provenance.
func closeRef(rr *RefReport) {
	rr.Tier = TierExact
	rr.Complete = true
	rr.ClosedForm = true
}
