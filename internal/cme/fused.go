package cme

import (
	"context"
	"math/bits"

	"cachemodel/internal/budget"
	"cachemodel/internal/ir"
	"cachemodel/internal/obs"
	"cachemodel/internal/poly"
	"cachemodel/internal/reuse"
	"cachemodel/internal/trace"
)

// fusedClassifier classifies one access for every candidate of a fuse
// group in a single pass. Soundness of the fusion rests on two facts that
// hold within a group (same program, same layout, same line size):
//
//  1. The memory line of every access, and therefore every cold equation
//     — "the producer exists and touches the same line" — is identical
//     across candidates. Since classification resolves an access by its FIRST
//     reuse vector with a satisfied cold equation (the replacement walk
//     then decides hit vs miss, never falls through), all candidates are
//     decided by the same vector at every point.
//  2. The interval walked by that vector's replacement equation visits
//     the same access sequence for every candidate; only the per-access
//     filter (set membership, line % NumSets_c) and the eviction
//     threshold (Assoc_c) differ. One traversal can therefore maintain a
//     distinct-line scratch per candidate and record, per candidate, the
//     position at which its own walk would have stopped — reproducing
//     verdict AND logical scan count bit-identically.
//
// A one-candidate group is the single-geometry case: FindMisses,
// EstimateMisses, the degradation ladder and the public Classify all run
// this classifier with one state. Each worker owns one fusedClassifier per
// fuse group (no locking).
type fusedClassifier struct {
	p        *Prepared
	g        *fuseGroup
	w        *trace.Walker
	states   []*fcState // parallel to g.cands
	paperLRU bool
	pend     []*fcState    // scratch: states needing a walk at this point
	walk     []fcWalkEntry // scratch: undecided candidates inside the current walk
	act      []*fcState    // scratch: states active for the current tile
	lbuf     []int         // reusable producer-point buffers
	pbuf     []int64

	// lineShift strength-reduces addr/lineBytes to a shift for the
	// (ubiquitous) power-of-two line sizes; -1 keeps the division.
	lineShift int

	// Local metric accumulators (flushed at release, never per point).
	// hCands is set only by SolveBatch's exact pass: single-geometry
	// solves stay out of the fusion histogram.
	hCands    *obs.LocalHistogram // candidates per fused traversal
	nWalks    int64
	nMemoHits int64
	nSteps    int64
	nMemoOff  int64
}

// fcState is one candidate's slice of the fused walk: its geometry, its
// pooled distinct-line scratch, its verdict memo, and the per-point
// transient fields of the walk in progress.
type fcState struct {
	numSets  int64
	setMask  int64 // numSets-1 when numSets is a power of two, else -1
	wayBytes int64
	assoc    int
	scratch  *walkScratch
	// memo carries each vector's arena plus its hit-rate-gate state (see
	// vecMemo and memoDisableAfter).
	memo map[*reuse.Vector]*vecMemo

	set      int64
	walkDone bool
	evicted  bool
	scanned  int64
	key      string   // memo key to store after the walk ("" = none)
	vm       *vecMemo // arena the pending key stores into
}

// fcWalkEntry is the per-access working set of one undecided candidate,
// copied out of its fcState so the hot loop of fusedWalk scans a compact
// contiguous array instead of chasing state pointers.
type fcWalkEntry struct {
	set     int64
	setMask int64
	numSets int64
	assoc   int
	scratch *walkScratch
	st      *fcState
}

func newFusedClassifier(g *fuseGroup, w *trace.Walker, p *Prepared) *fusedClassifier {
	fc := &fusedClassifier{p: p, g: g, w: w, paperLRU: p.opt.PaperLRU,
		states: make([]*fcState, len(g.cands)), lineShift: -1}
	if lb := g.ls.lineBytes; lb&(lb-1) == 0 {
		fc.lineShift = bits.TrailingZeros64(uint64(lb))
	}
	for i, cs := range g.cands {
		a := cs.a
		st := &fcState{numSets: a.numSets, setMask: a.setMask, wayBytes: a.wayBytes,
			assoc: a.cfg.Assoc, scratch: newWalkScratch(a.cfg.Assoc)}
		if !p.opt.NoMemo {
			st.memo = map[*reuse.Vector]*vecMemo{}
		}
		fc.states[i] = st
	}
	return fc
}

// release recycles the per-candidate scratches and flushes the locally
// accumulated metrics.
func (fc *fusedClassifier) release() {
	for _, s := range fc.states {
		if s.scratch != nil {
			s.scratch.release()
			s.scratch = nil
		}
	}
	fc.hCands.Flush()
	mWalks.Add(fc.nWalks)
	mWalkMemoHits.Add(fc.nMemoHits)
	mWalkSteps.Add(fc.nSteps)
	mWalkMemoDisabled.Add(fc.nMemoOff)
	fc.nWalks, fc.nMemoHits, fc.nSteps, fc.nMemoOff = 0, 0, 0, 0
}

// solveTile classifies every point of reference ri inside the tile for
// the candidates listed in active (positions into g.cands), accumulating
// each candidate's counts into the parallel parts slice. ctx is polled
// every 4096 points; an aborted tile leaves partial parts and is not
// marked done by the caller. A non-nil probe is consulted per point with
// the fused totals — len(active) classified points and the summed logical
// scan work — so a one-candidate group spends the budget point by point,
// Check(1, scanned), with cold misses scanning nothing.
func (fc *fusedClassifier) solveTile(ctx context.Context, ri int, t poly.Tile, active []int, parts []RefReport, p *budget.Probe) error {
	r := fc.p.np.Refs[ri]
	fc.act = fc.act[:0]
	for _, pos := range active {
		fc.act = append(fc.act, fc.states[pos])
	}
	if !fc.p.opt.NoSymbolic {
		if sym := fc.g.ls.symInfo()[r]; sym.usable() {
			return fc.solveTileSym(ctx, r, sym, t, parts, p)
		}
	}
	var perr error
	var before int64
	for k := range parts {
		before += parts[k].Analyzed
	}
	n := 0
	fc.p.spaces[r.Stmt].EnumerateTile(t, func(idx []int64) bool {
		scanned := fc.classifyFused(r, idx, parts)
		if p != nil {
			if perr = p.Check(int64(len(fc.act)), scanned); perr != nil {
				return false
			}
		}
		n++
		return n&4095 != 0 || ctx.Err() == nil
	})
	var after int64
	for k := range parts {
		after += parts[k].Analyzed
	}
	mTilesSolved.Inc()
	mPointsClassed.Add(after - before)
	mPointsEnumerated.Add(after - before)
	return perr
}

// classifyOne classifies one access for a one-candidate classifier,
// returning the outcome and the logical scan work of the deciding walk.
func (fc *fusedClassifier) classifyOne(r *ir.NRef, idx []int64) (Outcome, int64) {
	var part [1]RefReport
	fc.act = append(fc.act[:0], fc.states[0])
	scanned := fc.classifyFused(r, idx, part[:])
	switch {
	case part[0].Hits > 0:
		return Hit, scanned
	case part[0].Repl > 0:
		return ReplacementMiss, scanned
	}
	return ColdMiss, scanned
}

// classifyFused classifies one access for all active candidates at once.
// It returns the summed logical scan work of the point across the active
// candidates (memo replays included; cold misses scan nothing).
func (fc *fusedClassifier) classifyFused(r *ir.NRef, idx []int64, parts []RefReport) int64 {
	g := fc.g
	addr := r.AddressAt(idx)
	var line int64
	if fc.lineShift >= 0 {
		line = addr >> fc.lineShift
	} else {
		line = addr / g.ls.lineBytes
	}
	consumer := trace.Time{Label: r.Stmt.Label, Idx: idx, Seq: r.Seq}

	for _, v := range g.ls.vecs[r] {
		plabel, pidx := v.ProducerPointBuf(idx, &fc.lbuf, &fc.pbuf)
		// Cold equation — shared across the group: the producer access
		// must exist and touch the same memory line.
		if !fc.p.spaces[v.Producer.Stmt].Contains(pidx) {
			continue
		}
		paddr := v.Producer.AddressAt(pidx)
		if fc.lineShift >= 0 {
			paddr >>= fc.lineShift
		} else {
			paddr /= g.ls.lineBytes
		}
		if paddr != line {
			continue
		}
		producer := trace.Time{Label: plabel, Idx: pidx, Seq: v.Producer.Seq}
		info := g.ls.memo[v]
		fc.pend = fc.pend[:0]
		for _, s := range fc.act {
			s.walkDone, s.evicted, s.scanned, s.key, s.vm = false, false, 0, "", nil
			if s.setMask >= 0 {
				s.set = line & s.setMask
			} else {
				s.set = line % s.numSets
			}
			if s.memo != nil && info.invMask != 0 {
				vm := s.memo[v]
				if vm == nil {
					vm = &vecMemo{entries: map[string]memoEntry{}}
					s.memo[v] = vm
				}
				if !vm.off {
					key := s.scratch.memoKey(info, idx, addr, s.wayBytes)
					if e, ok := vm.entries[string(key)]; ok {
						s.evicted, s.scanned, s.walkDone = e.evicted, e.scanned, true
						fc.nMemoHits++
						vm.miss = 0
					} else {
						s.key = string(key)
						s.vm = vm
					}
				}
			}
			if !s.walkDone {
				fc.pend = append(fc.pend, s)
			}
		}
		if len(fc.pend) > 0 {
			fc.hCands.Observe(int64(len(fc.pend)))
			fc.fusedWalk(producer, consumer, line)
			fc.nWalks += int64(len(fc.pend))
			for _, s := range fc.pend {
				fc.nSteps += s.scanned
				if s.key != "" {
					s.vm.entries[s.key] = memoEntry{scanned: s.scanned, evicted: s.evicted}
					if s.vm.miss++; s.vm.miss >= memoDisableAfter {
						// Hit-rate gate: the vector keeps walking fresh
						// points, so free its arena and stop probing it.
						s.vm.entries = nil
						s.vm.off = true
						fc.nMemoOff++
					}
				}
			}
		}
		var scanned int64
		for k, s := range fc.act {
			parts[k].Analyzed++
			scanned += s.scanned
			if s.evicted {
				parts[k].Repl++
			} else {
				parts[k].Hits++
			}
		}
		return scanned
	}
	// No reuse vector solves the cold equation. Non-uniformly generated
	// reuse (§8 future work) gets the last word; its groups are singletons
	// (see solveExactFused).
	if fc.p.dyn != nil {
		if out, scanned, ok := fc.classifyDynamic(r, idx, line, consumer); ok {
			parts[0].count(out)
			return scanned
		}
	}
	for k := range fc.act {
		parts[k].Analyzed++
		parts[k].Cold++
	}
	return 0
}

// fusedWalk runs one shared interval traversal deciding the replacement
// equation for every pending candidate. Each candidate keeps its own
// distinct-line set, eviction threshold and stopping position; the
// traversal ends as soon as every candidate is decided (or, under exact
// LRU, when the reused line itself is touched — which decides everyone at
// once, exactly as each candidate's own walk would have stopped there).
func (fc *fusedClassifier) fusedWalk(producer, consumer trace.Time, line int64) {
	// walk is the compacted undecided set: candidates are swap-removed the
	// moment they decide, so the per-access inner loop costs Σ_c (own walk
	// length), not |group| × (longest walk) — a decided small cache stops
	// charging the walk immediately, exactly as its own walk would have
	// stopped. Entries are values, not state pointers, so the loop scans a
	// contiguous array. (fc.pend stays intact for the caller's memo stores.)
	walk := fc.walk[:0]
	for _, s := range fc.pend {
		s.scratch.reset()
		walk = append(walk, fcWalkEntry{set: s.set, setMask: s.setMask,
			numSets: s.numSets, assoc: s.assoc, scratch: s.scratch, st: s})
	}
	var pos int64
	lineBytes := fc.g.ls.lineBytes
	lineShift := fc.lineShift
	// When every pending candidate has a power-of-two set count, candidate
	// k's set test is (al^line)&mask_k == 0 and the masks are nested, so a
	// single test against the smallest mask rejects an access that
	// conflicts with no candidate at all — the overwhelmingly common case
	// — without touching the per-candidate loop.
	fastMask := int64(-1)
	for _, s := range fc.pend {
		if s.setMask < 0 {
			fastMask = -1
			break
		}
		if fastMask < 0 || s.setMask < fastMask {
			fastMask = s.setMask
		}
	}
	// scan applies one interval access to every undecided candidate and
	// reports whether any remain. Set membership strength-reduces the
	// modulo to a mask for power-of-two set counts.
	scan := func(al int64) bool {
		x := al ^ line
		if fastMask >= 0 && x&fastMask != 0 {
			return len(walk) > 0
		}
		for i := 0; i < len(walk); {
			w := &walk[i]
			var in bool
			if w.setMask >= 0 {
				in = x&w.setMask == 0
			} else {
				in = al%w.numSets == w.set
			}
			if in && w.scratch.add(al) >= w.assoc {
				w.st.evicted, w.st.scanned, w.st.walkDone = true, pos, true
				walk[i] = walk[len(walk)-1]
				walk = walk[:len(walk)-1]
				continue
			}
			i++
		}
		return len(walk) > 0
	}
	if fc.paperLRU {
		// The paper's equations verbatim: k distinct set contentions
		// anywhere in the interval evict; touches of the reused line are
		// counted as scanned but never stop a walk.
		fc.w.Between(producer, consumer, func(_ *ir.NRef, addr int64) bool {
			pos++
			var al int64
			if lineShift >= 0 {
				al = addr >> lineShift
			} else {
				al = addr / lineBytes
			}
			if al == line {
				return true
			}
			return scan(al)
		})
	} else {
		// Exact LRU: scan backwards from the consumer; the first touch of
		// the line is its most recent fetch and stops every candidate's walk at
		// the same position.
		fc.w.BetweenReverse(producer, consumer, func(_ *ir.NRef, addr int64) bool {
			pos++
			var al int64
			if lineShift >= 0 {
				al = addr >> lineShift
			} else {
				al = addr / lineBytes
			}
			if al == line {
				for _, w := range walk {
					w.st.scanned, w.st.walkDone = pos, true
				}
				walk = walk[:0]
				return false
			}
			return scan(al)
		})
	}
	// Interval exhausted with candidates still undecided: their own
	// walks scanned the whole interval and found no eviction.
	for _, w := range walk {
		w.st.scanned, w.st.walkDone = pos, true
	}
	fc.walk = walk[:0]
}

// classifyDynamic resolves non-uniformly generated reuse once every static
// reuse vector of the one-candidate classifier has fallen through: the
// latest earlier producer of the same element decides by an exact-LRU walk
// under either replacement model.
func (fc *fusedClassifier) classifyDynamic(r *ir.NRef, idx []int64, line int64, consumer trace.Time) (Outcome, int64, bool) {
	best, _, ok := fc.p.dynamicProducer(r, idx, consumer)
	if !ok {
		return ColdMiss, 0, false
	}
	s := fc.act[0]
	set := line % s.numSets
	var scanned int64
	evicted := false
	s.scratch.reset()
	fc.w.BetweenReverse(best, consumer, func(_ *ir.NRef, addr int64) bool {
		scanned++
		al := addr / fc.g.ls.lineBytes
		if al == line {
			return false
		}
		if al%s.numSets != set {
			return true
		}
		if s.scratch.add(al) >= s.assoc {
			evicted = true
			return false
		}
		return true
	})
	if evicted {
		return ReplacementMiss, scanned, true
	}
	return Hit, scanned, true
}

// dynamicProducer returns the latest access before consumer that touches
// the same element as reference r at idx through r's dynamic reuse pairs,
// and its reference. Same element means the same memory line, so the cold
// equation holds whenever ok.
func (p *Prepared) dynamicProducer(r *ir.NRef, idx []int64, consumer trace.Time) (best trace.Time, prod *ir.NRef, ok bool) {
	for _, d := range p.dyn[r] {
		q, has := d.ProducerPoint(idx)
		if !has || !p.spaces[d.Producer.Stmt].Contains(q) {
			continue
		}
		pt := trace.Time{Label: d.Producer.Stmt.Label, Idx: q, Seq: d.Producer.Seq}
		if trace.Compare(pt, consumer) >= 0 {
			continue
		}
		if !ok || trace.Compare(pt, best) > 0 {
			best, prod, ok = pt, d.Producer, true
		}
	}
	return best, prod, ok
}
