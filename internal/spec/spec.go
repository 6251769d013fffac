// Package spec is the one request model behind every front door: the
// cachette CLI, the analysis server, the distributed sweep coordinator
// and its workers, the advisor, the experiments and the library facade.
//
// It owns what those layers must agree on byte for byte: the built-in
// program registry, the program wire form and its validation, the
// paper's front end (abstract call inlining, loop normalisation, data
// layout), the size-parametric program family the scaling tier lifts,
// the cache design-space grid, the sampling-plan defaults and the size
// ladder. Policies that differ per layer — budget clamping and metering,
// content keys — stay in their layers (DESIGN.md §Request model).
package spec

import (
	"fmt"
	"math"
	"strings"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/fparse"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/sampling"
)

// Builtin is one entry of the built-in program registry.
type Builtin struct {
	Name        string
	Description string
	// Whole marks a whole program, whose builder takes an iteration count;
	// kernels ignore it.
	Whole bool
	// Uniform reports that the kernel is exactly analysable (every array's
	// references are uniformly generated).
	Uniform bool
	build   func(size, iters int64) *ir.Program
}

var registry = func() []Builtin {
	bs := []Builtin{
		{Name: "tomcatv", Description: "SPECfp95 Tomcatv model; -size = N, -iters = time steps",
			Whole: true, build: kernels.Tomcatv},
		{Name: "swim", Description: "SPECfp95 Swim model (CALC1/2/3 calls); -size = N, -iters = cycles",
			Whole: true, build: kernels.Swim},
		{Name: "applu", Description: "SPECfp95 Applu model (SSOR, 16 subroutines); -size = N, -iters = itmax",
			Whole: true, build: kernels.Applu},
		{Name: "vcycle", Description: "3-level multigrid V-cycle (R-able + sequence-associated calls); -size = N (mult. of 4, >= 16)",
			Whole: true, build: kernels.VCycle},
	}
	for _, k := range kernels.Suite() {
		build := k.Build
		bs = append(bs, Builtin{Name: k.Name, Description: k.Description, Uniform: k.Uniform,
			build: func(n, _ int64) *ir.Program { return build(n) }})
	}
	return bs
}()

// Builtins returns the registry in listing order: whole programs first,
// then the kernel suite.
func Builtins() []Builtin { return registry }

// Lookup finds a built-in program by case-insensitive name.
func Lookup(name string) (Builtin, bool) {
	for _, b := range registry {
		if strings.EqualFold(b.Name, name) {
			return b, true
		}
	}
	return Builtin{}, false
}

// Wire-form defaults for Program.
const (
	DefaultSize  = 32
	DefaultIters = 2
)

// Program names the program a request analyses: a built-in workload
// (Program) or inline FORTRAN source (Source, with compile-time Consts).
// Exactly one of the two must be set. Zero Size and Iters take the
// defaults.
type Program struct {
	Program string           `json:"program,omitempty"`
	Source  string           `json:"source,omitempty"`
	Consts  map[string]int64 `json:"consts,omitempty"`
	Size    int64            `json:"size,omitempty"`  // default 32
	Iters   int64            `json:"iters,omitempty"` // default 2
}

// Build validates the spec and instantiates the raw program. maxSize > 0
// bounds the problem size (the caller's admission limit); maxSize <= 0
// means no bound.
func (p Program) Build(maxSize int64) (*ir.Program, error) {
	b, err := p.resolve()
	if err != nil {
		return nil, err
	}
	size, iters := p.Size, p.Iters
	if size == 0 {
		size = DefaultSize
	}
	if iters == 0 {
		iters = DefaultIters
	}
	if size < 1 || iters < 1 {
		return nil, fmt.Errorf("size and iters must be positive (got %d, %d)", size, iters)
	}
	if maxSize > 0 && size > maxSize {
		return nil, fmt.Errorf("size %d exceeds the limit %d", size, maxSize)
	}
	if b == nil {
		cm := make(map[string]int64, len(p.Consts))
		for k, v := range p.Consts {
			cm[strings.ToUpper(k)] = v
		}
		return fparse.Parse(p.Source, cm)
	}
	return b.build(size, iters), nil
}

// resolve applies the program-or-source rule and looks the built-in up
// (nil for inline source).
func (p Program) resolve() (*Builtin, error) {
	switch {
	case p.Source != "" && p.Program != "":
		return nil, fmt.Errorf("set program or source, not both")
	case p.Source != "":
		return nil, nil
	case p.Program == "":
		return nil, fmt.Errorf("missing program (or inline source)")
	}
	b, ok := Lookup(p.Program)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", p.Program)
	}
	return &b, nil
}

// Prepare builds the program and runs the front end once (inline,
// normalise, baseline layout), returning the normalised program — named
// after the source program — and the inlining statistics.
func (p Program) Prepare(maxSize int64) (*ir.NProgram, *inline.Stats, error) {
	prog, err := p.Build(maxSize)
	if err != nil {
		return nil, nil, err
	}
	return Pipeline(prog, Front{})
}

// Family returns the size-parametric program family the scaling tier
// lifts: a built-in instantiated at each size (Size is ignored), or the
// inline source with sizeConst (default "N") rebound per size — explicit
// Consts still win over it. The spec is validated once, up front, so a
// bad name fails here rather than inside the solver; maxSize bounds every
// instantiation exactly as it bounds Build.
func (p Program) Family(sizeConst string, maxSize int64) (cme.BuildFunc, error) {
	if _, err := p.resolve(); err != nil {
		return nil, err
	}
	if p.Iters < 0 {
		return nil, fmt.Errorf("iters must be positive (got %d)", p.Iters)
	}
	sizeConst = strings.ToUpper(sizeConst)
	if sizeConst == "" {
		sizeConst = "N"
	}
	return func(n int64) (*ir.NProgram, error) {
		if n < 1 {
			return nil, fmt.Errorf("size %d must be positive", n)
		}
		q := p
		q.Size = n
		if q.Source != "" {
			q.Consts = map[string]int64{sizeConst: n}
			for k, v := range p.Consts {
				q.Consts[strings.ToUpper(k)] = v
			}
		}
		np, _, err := q.Prepare(maxSize)
		return np, err
	}, nil
}

// Front carries the front end's options; the zero value is the baseline
// (every analysable call inlined, the default data layout).
type Front struct {
	Inline inline.Options
	Layout layout.Options
}

// Pipeline is the paper's front end, the one place it is spelled out:
// abstract inlining of every analysable call (reported in the returned
// stats, call-crossing cases included), the loop-nest normalisation, then
// data layout. The normalised program carries the source program's name.
func Pipeline(p *ir.Program, opt Front) (*ir.NProgram, *inline.Stats, error) {
	flat, st, err := inline.Flatten(p, opt.Inline)
	if err != nil {
		return nil, nil, err
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		return nil, nil, err
	}
	if err := layout.AssignProgram(np, opt.Layout); err != nil {
		return nil, nil, err
	}
	np.Name = p.Name
	return np, st, nil
}

// Grid is a cache design space: cache sizes × line sizes ×
// associativities, optionally crossed with paddings of one array. Empty
// axes take the defaults.
type Grid struct {
	CacheSizes []int64 // default {4096, 8192, 16384, 32768, 65536}
	LineSizes  []int64 // default {32}
	Assocs     []int   // default {1, 2, 4}
	PadArray   string
	Pads       []int64 // paddings of PadArray in elements; 0 is the baseline layout
}

// Cell is one grid point in its self-contained wire form: geometry plus
// optional padding, so a remote worker reconstructs the exact candidate.
type Cell struct {
	Label      string `json:"label"`
	CacheBytes int64  `json:"cache_bytes"`
	LineBytes  int64  `json:"line_bytes"`
	Assoc      int    `json:"assoc"`
	PadArray   string `json:"pad_array,omitempty"`
	Pad        int64  `json:"pad,omitempty"`
}

// Config is the cell's cache geometry.
func (c Cell) Config() cache.Config {
	return cache.Config{SizeBytes: c.CacheBytes, LineBytes: c.LineBytes, Assoc: c.Assoc}
}

// Candidate is the solver candidate; a positive pad becomes the layout.
func (c Cell) Candidate() cme.Candidate {
	cand := cme.Candidate{Label: c.Label, Config: c.Config()}
	if c.Pad > 0 && c.PadArray != "" {
		cand.Layout = &layout.Options{PadOf: map[string]int64{c.PadArray: c.Pad}}
	}
	return cand
}

// Cells expands the grid in its one deterministic order — cache size,
// then line size, then associativity, then pad — which is part of every
// sweep's content address and of the merged report. Invalid geometries
// stay in the grid and fail per candidate. maxCells > 0 bounds the grid,
// checked before anything is materialised.
func (g Grid) Cells(maxCells int) ([]Cell, error) {
	css := orDefault(g.CacheSizes, []int64{4096, 8192, 16384, 32768, 65536})
	lss := orDefault(g.LineSizes, []int64{32})
	kss := orDefault(g.Assocs, []int{1, 2, 4})
	if g.PadArray == "" && len(g.Pads) > 0 {
		return nil, fmt.Errorf("pads given without pad_array")
	}
	pads := orDefault(g.Pads, []int64{0})
	if n := len(css) * len(lss) * len(kss) * len(pads); maxCells > 0 && n > maxCells {
		return nil, fmt.Errorf("candidate grid of %d exceeds the limit %d", n, maxCells)
	}
	var cells []Cell
	for _, cs := range css {
		for _, ls := range lss {
			for _, k := range kss {
				cfg := cache.Config{SizeBytes: cs, LineBytes: ls, Assoc: k}
				for _, pad := range pads {
					c := Cell{Label: cfg.String(), CacheBytes: cs, LineBytes: ls, Assoc: k}
					if pad > 0 {
						c.Label = fmt.Sprintf("%s+pad%d", cfg.String(), pad)
						c.PadArray, c.Pad = g.PadArray, pad
					}
					cells = append(cells, c)
				}
			}
		}
	}
	return cells, nil
}

// Candidates converts cells for the solver.
func Candidates(cells []Cell) []cme.Candidate {
	out := make([]cme.Candidate, len(cells))
	for i, c := range cells {
		out[i] = c.Candidate()
	}
	return out
}

func orDefault[T any](v, def []T) []T {
	if len(v) == 0 {
		return def
	}
	return v
}

// Plan returns the validated sampled-tier plan, nil for an exact solve.
// Zero confidence and width take the defaults 0.95 and 0.05.
func Plan(exact bool, confidence, width float64) (*sampling.Plan, error) {
	if exact {
		return nil, nil
	}
	if confidence == 0 {
		confidence = 0.95
	}
	if width == 0 {
		width = 0.05
	}
	plan := &sampling.Plan{C: confidence, W: width}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Ladder expands the arithmetic size ladder from, from+step, ..., <= to.
// It is sized arithmetically before anything is built, so an absurd
// range is an argument error and not an allocation, and it indexes by
// count rather than stepping n. Sizes must be positive, the ladder at
// most maxCount entries long, and to+step representable: a ladder within
// one step of MaxInt64 is the range a stepping loop wraps on, and no
// problem size there is meaningful.
func Ladder(from, to, step int64, maxCount int) ([]int64, error) {
	if step <= 0 || to < from || to > math.MaxInt64-step {
		return nil, fmt.Errorf("bad ladder: from %d to %d step %d", from, to, step)
	}
	if from < 1 {
		return nil, fmt.Errorf("ladder size %d must be positive", from)
	}
	count := (to-from)/step + 1
	if count > int64(maxCount) {
		return nil, fmt.Errorf("ladder of %d sizes exceeds the limit %d", count, maxCount)
	}
	ns := make([]int64, count)
	for i := range ns {
		ns[i] = from + int64(i)*step
	}
	return ns, nil
}
