// Package reuse implements the paper's central contribution (§3.4–3.5): a
// characterisation of data reuse across multiple loop nests. It groups
// references into uniformly generated sets (generalised to the whole
// normalised program), and derives temporal and spatial reuse vectors of
// the interleaved form
//
//	r = (ℓ1c−ℓ1p, x1, ℓ2c−ℓ2p, x2, ..., ℓnc−ℓnp, xn)
//
// including the second-kind spatial vectors that capture reuse across two
// adjacent array columns (Fig. 3).
//
// Reuse vectors are candidates: the miss equations (internal/cme) verify
// memory-line equality at every iteration point, so an over-generated
// candidate never causes incorrect classification, while a missing one can
// only overestimate misses (the paper's MMT case).
package reuse

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/linalg"
	"cachemodel/internal/obs"
)

// mVectorsGenerated counts reuse vectors produced by Generate (after
// dedup), flushed once per generation pass.
var mVectorsGenerated = obs.Default.Counter("reuse_vectors_generated_total")

// countVectors flushes the generated-vector total into the obs registry.
func countVectors(out map[*ir.NRef][]*Vector) {
	var n int64
	for _, vecs := range out {
		n += int64(len(vecs))
	}
	mVectorsGenerated.Add(n)
}

// Vector is a reuse vector from Producer to Consumer: the consumer at
// iteration i may reuse the memory line the producer touched at i − IdxDiff
// in the nest labelled Consumer.Stmt.Label − LabelDiff.
type Vector struct {
	Producer  *ir.NRef
	Consumer  *ir.NRef
	LabelDiff []int   // ℓc − ℓp, componentwise
	IdxDiff   []int64 // x
	Spatial   bool    // derived from equation (2) or the cross-column rule
	Cross     bool    // second-kind spatial vector spanning two columns
}

// Self reports whether the vector is self reuse (producer == consumer).
func (v *Vector) Self() bool { return v.Producer == v.Consumer }

// Interleaved returns the 2n-dimensional interleaved vector of §3.5.
func (v *Vector) Interleaved() []int64 {
	out := make([]int64, 0, 2*len(v.LabelDiff))
	for k := range v.LabelDiff {
		out = append(out, int64(v.LabelDiff[k]), v.IdxDiff[k])
	}
	return out
}

// Compare orders vectors by the interleaved lexicographic order; ascending
// order is most-recent-producer-first. It walks LabelDiff[k], IdxDiff[k]
// in turn rather than building Interleaved.
func Compare(a, b *Vector) int {
	for k := range a.LabelDiff {
		if c := cmp.Compare(a.LabelDiff[k], b.LabelDiff[k]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.IdxDiff[k], b.IdxDiff[k]); c != 0 {
			return c
		}
	}
	return 0
}

// nonNegative reports whether the interleaved vector is ⪰ 0; for the zero
// vector the producer must precede the consumer textually.
func (v *Vector) nonNegative() bool {
	return nonNegativeDiff(v.LabelDiff, v.IdxDiff, v.Producer.Seq, v.Consumer.Seq)
}

// nonNegativeDiff is nonNegative over a displacement's parts and the
// producer's and consumer's Seq.
func nonNegativeDiff(labelDiff []int, idxDiff []int64, pSeq, cSeq int) bool {
	for k := range labelDiff {
		if labelDiff[k] != 0 {
			return labelDiff[k] > 0
		}
		if idxDiff[k] != 0 {
			return idxDiff[k] > 0
		}
	}
	return pSeq < cSeq
}

// ProducerPoint maps a consumer iteration to the producer iteration the
// vector points at (label vector, index vector).
func (v *Vector) ProducerPoint(idx []int64) (label []int, pidx []int64) {
	cl := v.Consumer.Stmt.Label
	label = make([]int, len(cl))
	pidx = make([]int64, len(idx))
	for k := range cl {
		label[k] = cl[k] - v.LabelDiff[k]
		pidx[k] = idx[k] - v.IdxDiff[k]
	}
	return label, pidx
}

// ProducerPointBuf is ProducerPoint writing into caller-owned buffers
// (grown as needed through the pointers), sparing the two per-call
// allocations in solver hot loops. The returned slices alias the buffers
// and are only valid until the next call with the same buffers.
func (v *Vector) ProducerPointBuf(idx []int64, lbuf *[]int, pbuf *[]int64) (label []int, pidx []int64) {
	cl := v.Consumer.Stmt.Label
	if cap(*lbuf) < len(cl) {
		*lbuf = make([]int, len(cl))
	}
	if cap(*pbuf) < len(idx) {
		*pbuf = make([]int64, len(idx))
	}
	label = (*lbuf)[:len(cl)]
	pidx = (*pbuf)[:len(idx)]
	for k := len(cl); k < len(pidx); k++ {
		pidx[k] = 0 // ProducerPoint leaves dimensions beyond the label zeroed
	}
	for k := range cl {
		label[k] = cl[k] - v.LabelDiff[k]
		pidx[k] = idx[k] - v.IdxDiff[k]
	}
	return label, pidx
}

func (v *Vector) String() string {
	kind := byte('T')
	if v.Spatial {
		kind = 'S'
	}
	if v.Cross {
		kind = 'X'
	}
	b := append(make([]byte, 0, 64), kind, '(')
	for i, x := range v.Interleaved() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	b = append(b, ") "...)
	b = append(b, v.Consumer.ID...)
	b = append(b, "<-"...)
	b = append(b, v.Producer.ID...)
	return string(b)
}

// Options tunes candidate generation.
type Options struct {
	// KernelSpan is the coefficient range explored along nullspace basis
	// directions when enumerating candidate solutions (default 1).
	KernelSpan int
	// MaxPerPair caps the number of vectors generated per (producer,
	// consumer) pair (default 128).
	MaxPerPair int
	// NoSpatial disables spatial vectors (ablation knob).
	NoSpatial bool
	// NoCrossColumn disables the second-kind spatial vectors (ablation).
	NoCrossColumn bool
	// NoGroup disables group reuse, keeping only self reuse (ablation).
	NoGroup bool
	// NonUniform additionally resolves reuse between non-uniformly
	// generated references with uniquely solvable producer iterations
	// (the paper's §8 future work; see GenerateDynamic). Off by default:
	// the paper's method exploits only uniformly generated reuse.
	NonUniform bool
}

func (o Options) withDefaults() Options {
	if o.KernelSpan == 0 {
		o.KernelSpan = 1
	}
	if o.MaxPerPair == 0 {
		o.MaxPerPair = 128
	}
	return o
}

// Generate derives, for every reference of the program, its sorted list of
// reuse vectors under the given cache configuration.
func Generate(np *ir.NProgram, cfg cache.Config, opt Options) map[*ir.NRef][]*Vector {
	opt = opt.withDefaults()
	sets := UniformSets(np)
	// genSet derives the sorted vector lists of one uniformly generated
	// set. Sets are independent, so they generate in parallel below; each
	// invocation owns a private generator: its scratch buffers and its
	// displacement memo (the candidate sets depend only on (M, offset
	// difference), which repeats heavily inside large sets such as
	// Applu's 5×5 unrolled blocks).
	genSet := func(set *UniformSet) map[*ir.NRef][]*Vector {
		g := newGenerator(np, cfg, opt, set)
		part := make(map[*ir.NRef][]*Vector, len(set.Refs))
		for ci, rc := range set.Refs {
			cand := g.cand[:0]
			for pi, rp := range set.Refs {
				if opt.NoGroup && rp != rc {
					continue
				}
				cand = g.pair(cand, pi, ci)
			}
			g.cand = cand
			part[rc] = g.sorted(cand)
		}
		return part
	}

	out := map[*ir.NRef][]*Vector{}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sets) {
		workers = len(sets)
	}
	if workers <= 1 {
		for _, set := range sets {
			for r, vecs := range genSet(set) {
				out[r] = vecs
			}
		}
		countVectors(out)
		return out
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sets) {
					return
				}
				part := genSet(sets[i])
				mu.Lock()
				for r, vecs := range part {
					out[r] = vecs
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	countVectors(out)
	return out
}

// UniformSet is a set of uniformly generated references: same array and
// same access matrix M over the normalised index space (§3.4).
type UniformSet struct {
	Array *ir.Array
	Refs  []*ir.NRef
}

// uniformKey identifies a uniformly generated set: the array itself (two
// distinct arrays that share a name stay apart) and the access matrix,
// row-major as varints (every row has the program depth's length).
type uniformKey struct {
	array *ir.Array
	m     string
}

// UniformSets partitions the program's references into uniformly generated
// sets, in first-occurrence order.
func UniformSets(np *ir.NProgram) []*UniformSet {
	var sets []*UniformSet
	byKey := map[uniformKey]*UniformSet{}
	var buf []byte
	for _, r := range np.Refs {
		m, _ := r.AccessMatrix(np.Depth)
		buf = buf[:0]
		for _, row := range m {
			for _, c := range row {
				buf = binary.AppendVarint(buf, c)
			}
		}
		key := uniformKey{array: r.Array, m: string(buf)}
		s := byKey[key]
		if s == nil {
			s = &UniformSet{Array: r.Array}
			byKey[key] = s
			sets = append(sets, s)
		}
		s.Refs = append(s.Refs, r)
	}
	return sets
}

// generator derives the vectors of one uniform set. Every reference of the
// set shares the array and the access matrix M, so everything but the
// offset vectors is built once per set; a pair only subtracts offsets,
// looks its right-hand sides up in the memo and filters the solutions.
type generator struct {
	opt Options
	set *UniformSet

	m         *linalg.Mat // M (rank × n)
	mDrop     *linalg.Mat // M′: M without its first row (0 × n for rank 1)
	m1        linalg.Vec  // M's first row
	offs      [][]int64   // offs[i]: offset vector of set.Refs[i]
	lineElems int64
	d1        int64 // leading dimension of the array

	// memo maps a system's kind ('T', 'S' or 'X') and right-hand side to
	// its displacement vectors; vectors alias the stored slices.
	memo map[string][][]int64

	// Scratch, reused across pairs and consumers.
	key       []byte    // memo key
	rhs       []int64   // temporal right-hand side mp − mc
	cross     []int64   // cross-column right-hand side
	label     []int     // the pair's label difference
	lastLabel []int     // the label difference last handed to a vector
	cand      []Vector  // one consumer's candidates, before ordering
	order     []*Vector // cand, ordered
}

func newGenerator(np *ir.NProgram, cfg cache.Config, opt Options, set *UniformSet) *generator {
	n := np.Depth
	g := &generator{opt: opt, set: set, memo: map[string][][]int64{}}
	g.offs = make([][]int64, len(set.Refs))
	var rows [][]int64
	for i, r := range set.Refs {
		m, off := r.AccessMatrix(n)
		if i == 0 {
			rows = m
		}
		g.offs[i] = off
	}
	rank := len(rows)
	g.m = linalg.IntMat(rows...)
	if rank > 1 {
		g.mDrop = g.m.DropRow(0)
	} else {
		g.mDrop = linalg.NewMat(0, n)
	}
	if rank >= 1 {
		g.m1 = g.m.Row(0)
	}
	g.lineElems = cfg.LineElems(set.Array.ElemSize)
	if len(set.Array.Dims) > 0 {
		g.d1 = set.Array.Dims[0]
	}
	g.rhs = make([]int64, rank)
	g.cross = make([]int64, rank)
	g.label = make([]int, n)
	return g
}

// solutions returns the displacement vectors r of one system, memoised on
// (kind, rhs):
//
//	'T' temporal (equation (1)):  M·r = rhs
//	'S' spatial (equation (2)):   M′·r = rhs, with the first-subscript
//	                              displacement M1·r − mpc0 within a line
//	'X' cross-column (Fig. 3):    M·r = rhs
//
// The 'S' key also carries mpc0 = mp[0] − mc[0].
func (g *generator) solutions(kind byte, rhs []int64, mpc0 int64) [][]int64 {
	k := append(g.key[:0], kind)
	for _, x := range rhs {
		k = binary.AppendVarint(k, x)
	}
	if kind == 'S' {
		k = binary.AppendVarint(k, mpc0)
	}
	g.key = k
	if got, ok := g.memo[string(k)]; ok {
		return got
	}
	var out [][]int64
	yield := func(r []int64) { out = append(out, append([]int64(nil), r...)) }
	m := g.m
	if kind == 'S' {
		m = g.mDrop
	}
	if sol, ok := linalg.Solve(m, linalg.IntVec(rhs...)); ok {
		if p, ok := linalg.IntegralParticular(sol); ok {
			if kind == 'S' {
				g.enumerateSpatial(p, sol.Nullspace, g.m1, mpc0, g.lineElems, yield)
			} else {
				g.enumerate(p, sol.Nullspace, yield)
			}
		}
	}
	g.memo[string(k)] = out
	return out
}

// pair appends to out the candidate vectors from producer set.Refs[pi] to
// consumer set.Refs[ci]: at most MaxPerPair, each ⪰ 0.
func (g *generator) pair(out []Vector, pi, ci int) []Vector {
	rp, rc := g.set.Refs[pi], g.set.Refs[ci]
	mp, mc := g.offs[pi], g.offs[ci]
	for k := range g.label {
		g.label[k] = rc.Stmt.Label[k] - rp.Stmt.Label[k]
	}
	limit := len(out) + g.opt.MaxPerPair
	add := func(rs [][]int64, spatial, cross bool) {
		for _, r := range rs {
			if len(out) >= limit {
				return
			}
			if nonNegativeDiff(g.label, r, rp.Seq, rc.Seq) {
				out = append(out, Vector{Producer: rp, Consumer: rc, LabelDiff: g.labelDiff(),
					IdxDiff: r, Spatial: spatial, Cross: cross})
			}
		}
	}

	// Temporal: M·r = mp − mc   (equation (1)).
	rank := len(mp)
	bT := g.rhs
	for d := range bT {
		bT[d] = mp[d] - mc[d]
	}
	add(g.solutions('T', bT, 0), false, false)
	if g.opt.NoSpatial {
		return out
	}

	if g.lineElems > 1 && rank >= 1 {
		// Spatial within a column: M'·r = m'p − m'c with the first-subscript
		// displacement within a line (equation (2)).
		add(g.solutions('S', bT[1:], mp[0]-mc[0]), true, false)
		// Spatial across adjacent columns (second kind, Fig. 3): the last
		// element(s) of column c and the first of column c+1 share a line.
		// Target subscript displacement (consumer − producer):
		// Δ = (1 − d1 + e, 1, 0, ..., 0) and its mirror, e ∈ 0..L_s−2.
		if !g.opt.NoCrossColumn && rank >= 2 && g.d1 > 0 {
			b := g.cross
			for e := int64(0); e < g.lineElems-1; e++ {
				for _, sign := range [2]int64{1, -1} {
					copy(b, bT)
					b[0] += sign * (1 - g.d1 + e)
					b[1] += sign
					add(g.solutions('X', b, 0), true, true)
				}
			}
		}
	}
	return out
}

// labelDiff returns the current pair's label difference as a slice a
// vector may keep: the one last handed out when equal, else a fresh copy.
func (g *generator) labelDiff() []int {
	if g.lastLabel == nil || !slices.Equal(g.lastLabel, g.label) {
		g.lastLabel = slices.Clone(g.label)
	}
	return g.lastLabel
}

// sorted orders one consumer's candidates by byDisplacement and drops
// every vector equal to its predecessor in producer and displacement,
// returning the survivors in freshly allocated storage. The sort is
// stable, so duplicates stay in generation order and the first generated
// survives; producers have distinct Seq, so the survivors' order is
// strict.
func (g *generator) sorted(cand []Vector) []*Vector {
	order := g.order[:0]
	for i := range cand {
		order = append(order, &cand[i])
	}
	slices.SortStableFunc(order, byDisplacement)
	kept := order[:0]
	for _, v := range order {
		if n := len(kept); n > 0 && kept[n-1].Producer == v.Producer && Compare(kept[n-1], v) == 0 {
			continue
		}
		kept = append(kept, v)
	}
	g.order = order
	if len(kept) == 0 {
		return nil
	}
	slab := make([]Vector, len(kept))
	out := make([]*Vector, len(kept))
	for i, v := range kept {
		slab[i] = *v
		out[i] = &slab[i]
	}
	return out
}

// byDisplacement is each consumer's vector order: ascending interleaved
// displacement, then, at equal displacement, the textually later (more
// recent) producer first.
func byDisplacement(a, b *Vector) int {
	if c := Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(b.Producer.Seq, a.Producer.Seq)
}

// enumerate yields integral points p + Σ t_i·k_i with |t_i| ≤ KernelSpan.
func (g *generator) enumerate(p linalg.Vec, kernel []linalg.Vec, yield func([]int64)) {
	span := int64(g.opt.KernelSpan)
	var rec func(cur linalg.Vec, k int)
	rec = func(cur linalg.Vec, k int) {
		if k == len(kernel) {
			if ints, ok := cur.Ints(); ok {
				yield(ints)
			}
			return
		}
		for t := -span; t <= span; t++ {
			rec(cur.Add(kernel[k].Scale(linalg.RatInt(t))), k+1)
		}
	}
	rec(p, 0)
}

// enumerateSpatial enumerates solutions of the spatial system, expanding
// the kernel directions that move the first subscript so the displacement
// sweeps the whole line, and filtering to 0 < |M1·r + off| < lineElems
// (off = mc1 − mp1; a zero displacement is temporal, not spatial).
func (g *generator) enumerateSpatial(p linalg.Vec, kernel []linalg.Vec, m1 linalg.Vec, mpMinusMc1, lineElems int64, yield func([]int64)) {
	off := -mpMinusMc1 // displacement = M1·r + mc1 − mp1
	span := int64(g.opt.KernelSpan)
	var rec func(cur linalg.Vec, k int)
	count := 0
	rec = func(cur linalg.Vec, k int) {
		if count > 4*g.opt.MaxPerPair {
			return
		}
		if k == len(kernel) {
			d := m1.Dot(cur)
			di, ok := d.Int()
			if !ok {
				return
			}
			disp := di + off
			if disp == 0 || disp <= -lineElems || disp >= lineElems {
				return
			}
			if ints, ok := cur.Ints(); ok {
				count++
				yield(ints)
			}
			return
		}
		kspan := span
		// A kernel direction that moves the first subscript must sweep the
		// whole line span.
		if !m1.Dot(kernel[k]).IsZero() {
			c := m1.Dot(kernel[k]).Abs()
			if ci, ok := c.Int(); ok && ci > 0 {
				kspan = (lineElems-1)/ci + 1
			}
		}
		for t := -kspan; t <= kspan; t++ {
			rec(cur.Add(kernel[k].Scale(linalg.RatInt(t))), k+1)
		}
	}
	rec(p, 0)
}
