package cme

import (
	"context"
	"fmt"
	"sort"

	"cachemodel/internal/budget"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
)

// Geometry-parametric sweeps: closed-form miss counts in the number of
// sets.
//
// The replacement equations see the cache geometry through exactly two
// quantities: the line size (which shapes reuse vectors and cold
// equations) and the set-mapping residue line mod NumSets. Within a sweep
// column — candidates of one layout group sharing LineBytes and Assoc,
// differing only in capacity — only NumSets varies, so the per-reference
// miss counts are functions of S = NumSets alone. This tier answers most
// of a column from a handful of anchor solves:
//
//   - Pure-cold rung: a reference with no feasible reuse producer
//     (refSym.allCold, a line-size-only property) is all cold misses at
//     every S. Zero anchor solves.
//
//   - Stable-region certificate: two distinct memory lines can contend
//     for a set only if S divides their difference, i.e. only if they lie
//     at least S lines apart. Once S exceeds the program's footprint span
//     in lines (footprintSpanLines), no two distinct touched lines ever
//     share a set: every replacement walk ends the same way and scans the
//     same logical interval — the whole interval under PaperLRU, the
//     suffix back to the reused line under exact LRU — at every such S.
//     All counts are therefore provably constant over S > span, and the
//     fit below runs only inside this certified region, so its claims are
//     sound rather than merely spot-checked.
//
//   - Fit rung: the geomAnchors stable members with the fewest sets are
//     solved exactly, and each reference's counters are fitted over them
//     by the shared counter fit (fit.go) at degree 0 — inside the stable
//     region the counts are constant — with the anchors beyond the first
//     held out and reproduced exactly. Every evaluation must pass the count
//     identities (integral, non-negative, hits+cold+repl == analyzed ==
//     volume). Any failure refuses the (member, ref) pair, which falls
//     through to the fused enumerating solver — a refusal costs extra
//     work, never a wrong count.
//
// Members at or below the span (where counts genuinely vary with S in a
// way no low-degree polynomial captures) are never claimed: they solve
// through the ordinary fused path, with provenance saying why. The tier
// runs only for exact batches. Plain deadline/point/scan budgets keep it
// eligible — an anchor the budget cuts short fails the fit's census
// check, so its column falls through per reference to the ordinary
// degradation ladder, and closed-form fills cost the meter nothing —
// but fault-hooked budgets and NoSymbolic disable it (both force
// enumeration for fault-parity and equivalence testing).

// DefaultGeomMinColumn is the smallest sweep column (same line size and
// associativity, distinct set counts) the geometry-parametric tier will
// claim: below it the anchors cover everything and closed-form evaluation
// gains nothing. Work partitioners (internal/dist) use it to decide when
// keeping a column together in one solve is worth the coarser stealing
// granularity.
const DefaultGeomMinColumn = 4

// geomAnchors is how many stable members of a column the fused path must
// solve before the rest can be claimed: a degree-0 fit plus its holdouts.
const geomAnchors = 1 + fitVerify

// GeomInfo is the geometry-parametric tier's provenance for one sweep
// candidate, mirroring ScalingInfo for the problem-size axis.
type GeomInfo struct {
	// NumSets is this candidate's set count, the tier's free parameter.
	NumSets int64 `json:"num_sets"`
	// SpanLines is the program footprint span bound in lines under the
	// candidate's layout and line size (-1: no finite bound); Stable
	// reports NumSets > SpanLines, the no-interference certificate.
	SpanLines int64 `json:"span_lines"`
	Stable    bool  `json:"stable"`
	// Anchor marks a member the fused solver solved to feed the fits.
	Anchor bool `json:"anchor,omitempty"`
	// ClosedRefs counts references answered by O(1) evaluation (including
	// PureColdRefs, the rung that needs no anchors at all);
	// FallthroughRefs counts references the tier claimed but refused, so
	// they re-solved through the fused enumerating path.
	ClosedRefs      int `json:"closed_refs"`
	PureColdRefs    int `json:"pure_cold_refs,omitempty"`
	FallthroughRefs int `json:"fallthrough_refs,omitempty"`
	TotalRefs       int `json:"total_refs"`
	// Why says why the fit rung did not cover this member (anchors and
	// unstable members; empty for members answered in closed form).
	Why string `json:"why,omitempty"`
}

// Closed reports that every reference of the candidate came from the
// closed form.
func (g *GeomInfo) Closed() bool {
	return g != nil && !g.Anchor && g.TotalRefs > 0 && g.ClosedRefs == g.TotalRefs
}

// geomColumn is one planned column: the candidates of a layout group that
// share line size and associativity, ordered by ascending set count.
type geomColumn struct {
	lineBytes int64
	assoc     int
	span      int64 // footprint span bound in lines (-1: none computable)

	anchors  []*batchCand // stable members the fused pass solves
	deferred []*batchCand // stable members answered in closed form
	other    []*batchCand // unstable members: ordinary fused path

	// cleared[cs][ri] marks the refs this plan removed from cs.need so the
	// fused pass skips them; exactly these are filled (or restored on
	// refusal) by finishGeom.
	cleared map[*batchCand][]bool

	// pureCold[ri] marks references the pure-cold rung answers for every
	// member; fit[ri] marks references the fit rung must answer for the
	// deferred members.
	pureCold []bool
	fit      []bool
}

// numSetsOf is the candidate's cache.Config.NumSets.
func numSetsOf(cs *batchCand) int64 {
	cfg := cs.a.cfg
	return cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc))
}

// planGeom partitions a layout group's candidates into geometry columns
// and decides, per column, which members anchor, which defer to closed
// form, and which references each rung covers. It clears the deferred
// (member, ref) pairs from the need masks so the fused pass skips them.
// nil means the tier has nothing to contribute to this group.
func (p *Prepared) planGeom(states []*batchCand) []*geomColumn {
	type colKey struct {
		lineBytes int64
		assoc     int
	}
	cols := map[colKey][]*batchCand{}
	var order []colKey
	for _, cs := range states {
		k := colKey{cs.a.cfg.LineBytes, cs.a.cfg.Assoc}
		if _, ok := cols[k]; !ok {
			order = append(order, k)
		}
		cols[k] = append(cols[k], cs)
	}
	var plan []*geomColumn
	for _, k := range order {
		members := cols[k]
		if len(members) < DefaultGeomMinColumn {
			continue
		}
		sorted := append([]*batchCand(nil), members...)
		sort.Slice(sorted, func(i, j int) bool { return numSetsOf(sorted[i]) < numSetsOf(sorted[j]) })
		if col := p.planColumn(k.lineBytes, k.assoc, sorted); col != nil {
			plan = append(plan, col)
		}
	}
	return plan
}

// planColumn builds one column's plan (nil when nothing can be claimed).
// members arrive sorted by ascending set count, so anchors are the
// cheapest stable solves.
func (p *Prepared) planColumn(lineBytes int64, assoc int, members []*batchCand) *geomColumn {
	col := &geomColumn{lineBytes: lineBytes, assoc: assoc,
		span:     p.footprintSpanLines(lineBytes),
		cleared:  map[*batchCand][]bool{},
		pureCold: make([]bool, len(p.np.Refs)),
		fit:      make([]bool, len(p.np.Refs)),
	}
	sym := p.lineState(lineBytes).symInfo()
	anyPureCold := false
	for ri, r := range p.np.Refs {
		if s := sym[r]; s != nil && s.allCold && p.spaces[r.Stmt].Volume() > 0 {
			col.pureCold[ri] = true
			anyPureCold = true
		}
	}

	// Partition members: the first geomAnchors stable members anchor and
	// the rest defer to closed form.
	for _, cs := range members {
		switch {
		case col.span < 0 || numSetsOf(cs) <= col.span:
			col.other = append(col.other, cs)
		case len(col.anchors) < geomAnchors:
			col.anchors = append(col.anchors, cs)
		default:
			col.deferred = append(col.deferred, cs)
		}
	}
	if len(col.deferred) == 0 && !anyPureCold {
		return nil
	}

	// Clear the rungs' (member, ref) pairs from the need masks. Pure-cold
	// references clear for every member (the rung is S-independent); fit
	// references clear only for deferred members.
	clear := func(cs *batchCand, ri int) {
		if !cs.need[ri] {
			return // the result cache already answered it
		}
		cs.need[ri] = false
		cl := col.cleared[cs]
		if cl == nil {
			cl = make([]bool, len(p.np.Refs))
			col.cleared[cs] = cl
		}
		cl[ri] = true
	}
	for ri := range p.np.Refs {
		if col.pureCold[ri] {
			for _, cs := range members {
				clear(cs, ri)
			}
			continue
		}
		for _, cs := range col.deferred {
			col.fit[ri] = true
			clear(cs, ri)
		}
	}
	if len(col.cleared) == 0 {
		return nil // everything was already cache-filled
	}
	mGeomAnchors.Add(int64(len(col.anchors)))
	return col
}

// footprintSpanLines bounds the program's footprint span in memory lines
// under the current layout: the difference between the largest and
// smallest line index any reference can touch. Every candidate with more
// sets than this span is interference-free (two distinct lines contend
// only when at least NumSets lines apart). Returns -1 when no finite
// bound exists.
func (p *Prepared) footprintSpanLines(lineBytes int64) int64 {
	minA, maxA := int64(0), int64(0)
	seen := false
	for _, r := range p.np.Refs {
		sp := p.spaces[r.Stmt]
		if sp.Volume() == 0 {
			continue // touches nothing
		}
		lo, hi, ok := sp.BoundingBox()
		if !ok {
			return -1
		}
		aff := r.AddressAffine()
		if aff.MaxDepthUsed() > len(lo) {
			return -1 // address uses a loop the space does not bound
		}
		a, b := affineRange(aff, lo, hi)
		if !seen || a < minA {
			minA = a
		}
		if !seen || b > maxA {
			maxA = b
		}
		seen = true
	}
	if !seen {
		return -1
	}
	return maxA/lineBytes - minA/lineBytes
}

// affineRange returns the minimum and maximum of an affine form over the
// box lo..hi (inclusive), the standard interval evaluation.
func affineRange(aff ir.Affine, lo, hi []int64) (int64, int64) {
	a, b := aff.Const, aff.Const
	for k := 1; k <= len(lo); k++ {
		c := aff.At(k)
		if c == 0 {
			continue
		}
		x, y := c*lo[k-1], c*hi[k-1]
		if x > y {
			x, y = y, x
		}
		a += x
		b += y
	}
	return a, b
}

// finishGeom completes the tier after the fused pass: it fills the
// pure-cold and fitted rungs' reports, restores and re-solves every
// refusal through the ordinary fused path, and stamps per-candidate
// provenance. serr is the fused pass's outcome; on a pool error
// (cancellation, panic) the deferred reports are left incomplete
// (coherent partial results), exactly like an interrupted enumeration.
// Budget exhaustion (m.Err with a clean pool) still fills: closed-form
// evaluation costs the meter nothing, and an anchor the budget cut
// short fails the fit's census check, so its column's deferred refs
// fall through per reference and rejoin the ordinary degradation
// ladder.
func (p *Prepared) finishGeom(ctx context.Context, m *budget.Meter, col *obs.Collector, run solveRun, plan []*geomColumn, serr error) error {
	if serr != nil {
		return serr
	}
	var resolve []*batchCand
	resolveSeen := map[*batchCand]bool{}
	for _, gc := range plan {
		refused := p.fillColumn(gc)
		for cs, refs := range refused {
			for ri, bad := range refs {
				if !bad {
					continue
				}
				cs.need[ri] = true
				if !resolveSeen[cs] {
					resolveSeen[cs] = true
					resolve = append(resolve, cs)
				}
			}
		}
	}
	if len(resolve) > 0 && m.Err() == nil {
		// Fall-through: the refused (member, ref) pairs run the ordinary
		// fused enumerating solver — need masks now select exactly them.
		sort.Slice(resolve, func(i, j int) bool { return resolve[i].ci < resolve[j].ci })
		return p.solveExactFused(ctx, m, col, resolve, run)
	}
	return nil
}

// fillColumn evaluates one column's rungs and returns the refused
// (member → per-ref) masks (empty when everything claimed held).
func (p *Prepared) fillColumn(col *geomColumn) map[*batchCand][]bool {
	stats := map[*batchCand]*GeomInfo{}
	info := func(cs *batchCand) *GeomInfo {
		gi := stats[cs]
		if gi == nil {
			s := numSetsOf(cs)
			gi = &GeomInfo{NumSets: s, SpanLines: col.span,
				Stable:    col.span >= 0 && s > col.span,
				TotalRefs: len(p.np.Refs)}
			stats[cs] = gi
			cs.rep.Geom = gi
		}
		return gi
	}
	refused := map[*batchCand][]bool{}
	refuse := func(cs *batchCand, ri int) {
		cl := col.cleared[cs]
		if cl == nil || !cl[ri] {
			return
		}
		m := refused[cs]
		if m == nil {
			m = make([]bool, len(p.np.Refs))
			refused[cs] = m
		}
		m[ri] = true
		info(cs).FallthroughRefs++
		mGeomFallbacks.Inc()
	}
	for _, cs := range col.anchors {
		info(cs).Anchor = true
		info(cs).Why = "anchor"
	}
	for _, cs := range col.other {
		if col.span < 0 {
			info(cs).Why = "no finite footprint bound"
		} else {
			info(cs).Why = fmt.Sprintf("unstable: %d sets <= span %d lines", numSetsOf(cs), col.span)
		}
	}

	// Pure-cold rung: all cold at every set count, no anchors consumed.
	// Members are visited in plan order so provenance builds
	// deterministically (the fills themselves are independent).
	fillPureCold := func(cs *batchCand) {
		cl := col.cleared[cs]
		if cl == nil {
			return
		}
		for ri := range p.np.Refs {
			if !col.pureCold[ri] || !cl[ri] {
				continue
			}
			fillPureCold(cs.rep.Refs[ri])
			gi := info(cs)
			gi.ClosedRefs++
			gi.PureColdRefs++
			mGeomEvals.Inc()
			mGeomPureCold.Inc()
		}
	}
	for _, cs := range col.anchors {
		fillPureCold(cs)
	}
	for _, cs := range col.deferred {
		fillPureCold(cs)
	}
	for _, cs := range col.other {
		fillPureCold(cs)
	}

	// Fit rung, per reference over the anchors.
	for ri := range p.np.Refs {
		if col.fit[ri] {
			p.fitAndFill(col, ri, refuse, info)
		}
	}
	return refused
}

// fitAndFill runs the fit rung for one reference: fit its counters over
// the anchors and evaluate them at every deferred member. Refusals route
// through refuse (fall-through, never a wrong count).
func (p *Prepared) fitAndFill(col *geomColumn, ri int, refuse func(*batchCand, int), info func(*batchCand) *GeomInfo) {
	var fit *refFit
	fitted := false
	for _, cs := range col.deferred {
		cl := col.cleared[cs]
		if cl == nil || !cl[ri] {
			continue
		}
		if !fitted {
			fitted = true
			xs := make([]int64, len(col.anchors))
			reps := make([]*RefReport, len(col.anchors))
			for i, a := range col.anchors {
				xs[i], reps[i] = numSetsOf(a), a.rep.Refs[ri]
			}
			if f, err := fitRef(0, xs, reps); err == nil {
				fit = f
				mGeomFits.Inc()
			}
		}
		if fit == nil || !fit.fill(cs.rep.Refs[ri], numSetsOf(cs)) {
			refuse(cs, ri)
			continue
		}
		info(cs).ClosedRefs++
		mGeomEvals.Inc()
	}
}
