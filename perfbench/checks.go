package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"cachemodel/internal/budget"
	"cachemodel/internal/cme"
	"cachemodel/internal/dist"
	"cachemodel/internal/trace"
)

// exactness compares the exact report with the simulator, reference by
// reference. The exact solver may over-count misses, never under-count:
// that is its documented one-sided contract.
type exactness struct {
	refsInexact int64 // references whose exact misses exceed the simulator's
	overMisses  int64 // exact misses above simulator misses, summed
	simMisses   int64
}

// pctOfSim is exact misses as a percentage of simulator misses: 100 when
// every count is exact, 100 plus the over-count otherwise. Unlike the
// over-count itself it never reads 0.
func (e exactness) pctOfSim() float64 {
	if e.simMisses == 0 {
		return 0
	}
	return 100 * float64(e.simMisses+e.overMisses) / float64(e.simMisses)
}

// checkExact checks the exact report against the simulator: equal accesses
// per reference and in total, and misses at or above the simulator's for
// each reference.
func checkExact(ex *cme.Report, sim *trace.SimResult) (exactness, error) {
	var e exactness
	var errs []error
	if ex.Degraded || ex.Tier != cme.TierExact {
		errs = append(errs, fmt.Errorf("exact report degraded to tier %s", ex.Tier))
	}
	if sim.Truncated {
		errs = append(errs, errors.New("simulation truncated"))
	}
	var acc int64
	for _, rr := range ex.Refs {
		st := sim.PerRef[rr.Ref]
		if st == nil {
			st = &trace.RefStats{} // a reference with an empty iteration space
		}
		acc += rr.Analyzed
		if rr.Analyzed != st.Accesses || rr.Hits+rr.Misses() != rr.Analyzed {
			errs = append(errs, fmt.Errorf("ref %s: exact accesses %d (hits %d + misses %d), simulator %d",
				rr.Ref.ID, rr.Analyzed, rr.Hits, rr.Misses(), st.Accesses))
		}
		switch m := rr.Misses(); {
		case m < st.Misses:
			errs = append(errs, fmt.Errorf("ref %s: exact misses %d below simulator misses %d", rr.Ref.ID, m, st.Misses))
		case m > st.Misses:
			e.refsInexact++
			e.overMisses += m - st.Misses
		}
		e.simMisses += st.Misses
	}
	if acc != sim.Accesses {
		errs = append(errs, fmt.Errorf("exact accesses %d, simulator %d", acc, sim.Accesses))
	}
	return e, errors.Join(errs...)
}

// sameCounts checks two reports carry identical per-reference counts,
// matching references by ID.
func sameCounts(want, got *cme.Report) error {
	if got == nil {
		return errors.New("no report")
	}
	if len(want.Refs) != len(got.Refs) {
		return fmt.Errorf("%d refs, want %d", len(got.Refs), len(want.Refs))
	}
	for i, w := range want.Refs {
		g := got.Refs[i]
		if w.Ref.ID != g.Ref.ID || w.Volume != g.Volume || w.Analyzed != g.Analyzed ||
			w.Hits != g.Hits || w.Cold != g.Cold || w.Repl != g.Repl {
			return fmt.Errorf("ref %s: got {volume %d analyzed %d hits %d cold %d repl %d}, want ref %s {volume %d analyzed %d hits %d cold %d repl %d}",
				g.Ref.ID, g.Volume, g.Analyzed, g.Hits, g.Cold, g.Repl,
				w.Ref.ID, w.Volume, w.Analyzed, w.Hits, w.Cold, w.Repl)
		}
	}
	return nil
}

// sampledError is the access-weighted mean over references of
// |sampled − exact| miss ratio, in percentage points.
func sampledError(ex, est *cme.Report) float64 {
	var sum, weight float64
	for i, rr := range ex.Refs {
		d := est.Refs[i].MissRatio() - rr.MissRatio()
		if d < 0 {
			d = -d
		}
		sum += float64(rr.Volume) * d
		weight += float64(rr.Volume)
	}
	if weight == 0 {
		return 0
	}
	return 100 * sum / weight
}

// checkPass runs the output checks of one pass, counting each as an
// operation of p, and returns the exactness figures and the mean sampled
// error.
func checkPass(w *workload, out *outputs, p *pass) (exactness, float64) {
	var ex exactness
	if len(out.exacts) == 0 || out.exacts[0] == nil || len(out.sims) == 0 || out.sims[0] == nil {
		return ex, 0
	}
	exact := out.exacts[0]
	ex, err := checkExact(exact, out.sims[0])
	p.check(prefix("exact vs simulator", err))
	for i, rep := range out.exacts[1:] {
		p.check(prefix(fmt.Sprintf("FindMisses call %d vs the first", i+1), sameCounts(exact, rep)))
	}
	var simErr error
	for i, sim := range out.sims[1:] {
		if sim == nil || sim.Accesses != out.sims[0].Accesses || sim.Misses != out.sims[0].Misses {
			simErr = fmt.Errorf("simulation %d differs from the first", i+1)
		}
	}
	p.check(simErr)

	var errSum float64
	for k, est := range out.estimates {
		if est == nil {
			continue
		}
		var err error
		// A reference whose whole space fits in the sample is counted in
		// full, so a small program's estimate may come back exact.
		if est.Degraded || est.Tier > cme.TierSampled || len(est.Refs) != len(exact.Refs) {
			err = fmt.Errorf("estimate %d: tier %s, degraded %v, %d refs", k, est.Tier, est.Degraded, len(est.Refs))
		} else {
			for i, rr := range est.Refs {
				if rr.Volume != exact.Refs[i].Volume {
					err = fmt.Errorf("estimate %d: ref %s volume %d, exact %d", k, rr.Ref.ID, rr.Volume, exact.Refs[i].Volume)
					break
				}
			}
		}
		p.check(err)
		errSum += sampledError(exact, est)
	}
	sampled := 0.0
	if n := len(out.estimates); n > 0 {
		sampled = errSum / float64(n)
	}
	if w.Design != nil {
		checkDesign(w, out, p)
	}
	return ex, sampled
}

// checkDesign checks the design-space outputs: every candidate exact and
// undegraded, the base geometry's grid row bit-identical to FindMisses,
// and the dist and serve rows byte-identical to the direct SolveBatch
// rows.
func checkDesign(w *workload, out *outputs, p *pass) {
	grid := w.Design.grid()
	for _, set := range []struct {
		name string
		reps []*cme.Report
		n    int
	}{{"column", out.column, len(w.Design.Column)}, {"grid", out.grid, len(grid)}} {
		err := error(nil)
		if len(set.reps) != set.n {
			err = fmt.Errorf("%s: %d reports for %d candidates", set.name, len(set.reps), set.n)
		}
		for i, r := range set.reps {
			if r == nil || r.Degraded || r.Tier != cme.TierExact {
				err = fmt.Errorf("%s candidate %d: missing or not exact", set.name, i)
				break
			}
		}
		p.check(err)
	}
	base := -1
	for i, c := range grid {
		if c.Config == baseConfig {
			base = i
		}
	}
	if base < 0 || base >= len(out.grid) {
		p.check(fmt.Errorf("grid has no %s row", baseConfig))
	} else {
		p.check(prefix("grid row "+baseConfig.String()+" vs FindMisses", sameCounts(out.exacts[0], out.grid[base])))
	}

	var ladderErr error
	if len(out.ladder) != len(w.Design.Ladder) {
		ladderErr = fmt.Errorf("ladder: %d reports for %d sizes", len(out.ladder), len(w.Design.Ladder))
	}
	for i, r := range out.ladder {
		if r == nil || r.Scaling == nil || !r.Scaling.ClosedForm || r.Degraded {
			ladderErr = fmt.Errorf("ladder size %d: not answered in closed form", w.Design.Ladder[i])
		}
	}
	p.check(ladderErr)

	if out.grid != nil {
		want, err := json.Marshal(dist.RenderRows(wireGrid(grid), out.grid, nil))
		if err != nil {
			p.check(err)
			return
		}
		for _, via := range []struct {
			name string
			rows []dist.Row
		}{{"dist", out.distRows}, {"serve", out.serveRows}} {
			got, err := json.Marshal(via.rows)
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("%s rows differ from the direct SolveBatch rows", via.name)
			}
			p.check(err)
		}
	}
}

// checkLadderExact solves the first ladder size with the ordinary exact
// tier and compares it with the closed-form answer. The fit samples sizes
// from the fit window up; a size the ladder answered in closed form was
// evaluated from the fitted polynomials, not solved.
func checkLadderExact(ctx context.Context, w *workload, out *outputs) error {
	if len(out.ladder) == 0 || out.ladder[0] == nil {
		return errors.New("no ladder report")
	}
	n := w.Design.Ladder[0]
	prog, err := buildProgram(w.Program, n, w.Iters)
	if err != nil {
		return err
	}
	np, err := prepareProgram(prog)
	if err != nil {
		return err
	}
	a, err := cme.New(np, w.Design.LadderCfg, cme.Options{})
	if err != nil {
		return err
	}
	ex, err := a.FindMissesCtx(ctx, budget.Budget{})
	if err != nil {
		return err
	}
	return prefix(fmt.Sprintf("ladder size %d vs exact solve", n), sameCounts(ex, out.ladder[0]))
}

func wireGrid(cs []cme.Candidate) []dist.WireCandidate {
	out := make([]dist.WireCandidate, len(cs))
	for i, c := range cs {
		out[i] = dist.WireCandidate{Label: c.Label, CacheBytes: c.Config.SizeBytes,
			LineBytes: c.Config.LineBytes, Assoc: c.Config.Assoc}
	}
	return out
}

func prefix(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
