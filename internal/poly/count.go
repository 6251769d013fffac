package poly

import (
	"cachemodel/internal/ir"
)

// This file is the lattice-point counting engine: it answers "how many
// points does this region hold?" without visiting them, generalising
// Volume() to tiles and to extra affine constraint systems. The solver's
// symbolic fast path uses it to resolve whole regions of an iteration
// space (all-cold references, replicated slabs) in closed form.
//
// The algorithm is the per-dimension interval decomposition of Volume():
// at each level the admissible interval of I_{k+1} is computed from the
// bounds, the guards resolvable at that level, the tile clamp, and the
// extra constraints resolvable at that level; whenever every deeper level
// is independent of the indices fixed so far, the sub-count is a constant
// factor and the interval multiplies instead of being enumerated.

// CountTile returns the exact number of points of the space inside the
// tile. CountTile(FullTile()) == Volume().
func (sp *Space) CountTile(t Tile) int64 {
	if t.Full() {
		return sp.Volume()
	}
	return sp.CountWith(t, nil)
}

// CountWith returns the exact number of points of the space inside the
// tile that additionally satisfy every constraint in extra. Constraints
// may use any index up to the space's depth; a constraint using deeper
// indices makes the call panic (the caller built it against the wrong
// space).
func (sp *Space) CountWith(t Tile, extra []ir.NConstraint) int64 {
	if sp.Depth == 0 {
		for _, g := range extra {
			ok := g.Expr.Const >= 0
			if g.IsEq {
				ok = g.Expr.Const == 0
			}
			if !ok {
				return 0
			}
		}
		if t.Full() {
			return sp.Volume()
		}
		return 0
	}
	c := counter{sp: sp, t: t}
	c.extraAt = make([][]ir.NConstraint, sp.Depth)
	for _, g := range extra {
		d := g.Expr.MaxDepthUsed()
		if d > sp.Depth {
			panic("poly: CountWith constraint deeper than the space")
		}
		if d == 0 {
			d = 1 // constant constraint: resolve at the first level
		}
		c.extraAt[d-1] = append(c.extraAt[d-1], g)
	}
	c.computeIndep()
	ip := getIdx(sp.Depth)
	defer putIdx(ip)
	return c.count(0, *ip)
}

// counter is the state of one CountWith call.
type counter struct {
	sp      *Space
	t       Tile
	extraAt [][]ir.NConstraint
	// indep[m] reports that levels m.. (bounds, guards and extras alike)
	// depend only on indices >= m, so the sub-count below level m-1 is a
	// constant factor.
	indep []bool
}

// computeIndep fills the per-level suffix-independence table, mirroring
// Space.suffixIndependent but including the extra constraints.
func (c *counter) computeIndep() {
	sp := c.sp
	n := sp.Depth
	c.indep = make([]bool, n+1)
	c.indep[n] = true
	for m := n - 1; m >= 0; m-- {
		ok := true
		for j := m; j < n && ok; j++ {
			if usesShallowerThan(sp.Bounds[j].Lo, m) || usesShallowerThan(sp.Bounds[j].Hi, m) {
				ok = false
				break
			}
			for _, g := range sp.guardsAt[j] {
				if usesShallowerThan(g.Expr, m) {
					ok = false
					break
				}
			}
			for _, g := range c.extraAt[j] {
				if usesShallowerThan(g.Expr, m) {
					ok = false
					break
				}
			}
		}
		c.indep[m] = ok
	}
}

func (c *counter) count(k int, idx []int64) int64 {
	sp := c.sp
	if k == sp.Depth {
		return 1
	}
	lo, hi, ok := sp.rangeAt(k, idx)
	if !ok {
		return 0
	}
	if k == c.t.Dim {
		if c.t.Lo > lo {
			lo = c.t.Lo
		}
		if c.t.Hi < hi {
			hi = c.t.Hi
		}
		if lo > hi {
			return 0
		}
	}
	lo, hi, ok = narrowBy(c.extraAt[k], k, idx, lo, hi)
	if !ok {
		return 0
	}
	if c.indep[k+1] {
		idx[k] = lo
		sub := c.count(k+1, idx)
		return (hi - lo + 1) * sub
	}
	var total int64
	for v := lo; v <= hi; v++ {
		idx[k] = v
		total += c.count(k+1, idx)
	}
	return total
}
