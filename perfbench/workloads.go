package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/dist"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/reuse"
	"cachemodel/internal/sampling"
	"cachemodel/internal/serve"
	"cachemodel/internal/trace"
)

// baseConfig is the cache every workload's single-geometry calls use.
var baseConfig = cache.Config{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 1}

// estimatePlan is the EstimateMisses plan: 95% confidence, ±0.05 width.
var estimatePlan = sampling.Plan{C: 0.95, W: 0.05}

// workload is one input set of the benchmark. Every pass runs the
// single-geometry calls (setup, FindMisses, EstimateMisses, Simulate);
// a design workload adds the batch, geom, scaling, dist and serve calls.
type workload struct {
	Name    string
	Program string // built-in program name, as serve and dist spell it
	N       int64
	Iters   int64
	// Exacts is the number of FindMisses calls per pass; a call of a
	// tenth of a second needs several for a steady median.
	Exacts int
	// Estimates is the number of EstimateMisses calls per pass, each
	// with its own seed derived from the run's seed. Their mean error
	// is sampled_err_pp; more calls make it steadier across seeds.
	Estimates int
	// Sims is the number of simulator calls per pass; one takes
	// milliseconds, so its median needs many.
	Sims   int
	Design *design
}

// design is the design-space part of a workload.
type design struct {
	Column    []cache.Config // one line size and associativity: the geom tier
	Sizes     []int64        // grid: every size × line × assoc, fused solver
	Lines     []int64
	Assocs    []int
	LadderCfg cache.Config // closed-form size ladder (PrepareScaling + SolveLadder)
	Ladder    []int64
}

// grid lists the design grid in the order serve and dist build it.
func (d *design) grid() []cme.Candidate {
	var cs []cme.Candidate
	for _, size := range d.Sizes {
		for _, line := range d.Lines {
			for _, k := range d.Assocs {
				cfg := cache.Config{SizeBytes: size, LineBytes: line, Assoc: k}
				cs = append(cs, cme.Candidate{Label: cfg.String(), Config: cfg})
			}
		}
	}
	return cs
}

func column(from, to, step, line int64) []cache.Config {
	var cs []cache.Config
	for size := from; size <= to; size += step {
		cs = append(cs, cache.Config{SizeBytes: size, LineBytes: line, Assoc: 1})
	}
	return cs
}

func ladder(from, to, step int64) []int64 {
	var ns []int64
	for n := from; n <= to; n += step {
		ns = append(ns, n)
	}
	return ns
}

// workloads are the benchmark's workloads; BENCHMARK.json names them and
// says why each was chosen. tomcatv-single stresses the exact solver's
// replacement walks, applu-single reuse generation and setup, and
// tomcatv-design the batch, geom, scaling, dist and serve layers. The two
// single-geometry workloads bypass those design layers, so they give the
// no-change prediction for a change to them, and the other way round.
var workloads = []*workload{
	{Name: "tomcatv-single", Program: "tomcatv", N: 48, Iters: 2, Exacts: 1, Estimates: 16, Sims: 20},
	{Name: "applu-single", Program: "applu", N: 8, Iters: 1, Exacts: 1, Estimates: 4, Sims: 20},
	{Name: "tomcatv-design", Program: "tomcatv", N: 24, Iters: 1, Exacts: 8, Estimates: 32, Sims: 20,
		Design: &design{
			Column:    column(40*1024, 166*1024, 2*1024, 32),
			Sizes:     []int64{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024},
			Lines:     []int64{16, 32, 64},
			Assocs:    []int{1, 2, 4},
			LadderCfg: cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1},
			Ladder:    ladder(192, 512, 64),
		}},
}

// tinyWorkloads are the same workloads at sizes small enough for a
// self-test.
var tinyWorkloads = []*workload{
	{Name: "tomcatv-single", Program: "tomcatv", N: 12, Iters: 1, Exacts: 1, Estimates: 2, Sims: 2},
	{Name: "applu-single", Program: "applu", N: 4, Iters: 1, Exacts: 1, Estimates: 1, Sims: 2},
	{Name: "tomcatv-design", Program: "tomcatv", N: 12, Iters: 1, Exacts: 2, Estimates: 2, Sims: 2,
		Design: &design{
			Column:    column(4*1024, 10*1024, 2*1024, 32),
			Sizes:     []int64{4 * 1024, 32 * 1024},
			Lines:     []int64{32, 64},
			Assocs:    []int{1, 2},
			LadderCfg: cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1},
			Ladder:    []int64{96, 112},
		}},
}

func findWorkload(set []*workload, name string) (*workload, error) {
	for _, w := range set {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildProgram instantiates a built-in program at size n.
func buildProgram(name string, n, iters int64) (*ir.Program, error) {
	switch name {
	case "tomcatv":
		return kernels.Tomcatv(n, iters), nil
	case "applu":
		return kernels.Applu(n, iters), nil
	}
	return nil, fmt.Errorf("unknown program %q", name)
}

// prepareProgram runs inline, normalize and layout, untimed: the scaling
// tier calls it for every size it solves.
func prepareProgram(p *ir.Program) (*ir.NProgram, error) {
	flat, _, err := inline.Flatten(p, inline.Options{})
	if err != nil {
		return nil, err
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		return nil, err
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		return nil, err
	}
	return np, nil
}

// estimateSeed is the cme.Options.Seed of the k-th estimate of a run.
func estimateSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// outputs holds what a pass produced, for the output checks.
type outputs struct {
	np        *ir.NProgram
	inlined   int
	vecs      map[*ir.NRef][]*reuse.Vector
	exacts    []*cme.Report
	estimates []*cme.Report
	sims      []*trace.SimResult

	// Counts kept once the reports above are released.
	refs        int
	vectors     int
	simAccesses int64

	column    []*cme.Report
	grid      []*cme.Report
	ladder    []*cme.Report
	distRows  []dist.Row
	serveRows []dist.Row
	serveJob  time.Duration // as the job reports it
}

// runPass runs one pass of w: each call starts from fresh state, as a
// user's single call would, so no memo, result cache, singleflight or
// unit dedup carries over from an earlier call.
func runPass(ctx context.Context, w *workload, seed int64, p *pass) *outputs {
	out := &outputs{}
	p.group("pass", func() {
		var an *cme.Analyzer
		var prep *cme.Prepared
		p.group("setup", func() { an, prep = setup(w, p, out) })
		if !p.ok() {
			return
		}
		// Every call after the first gets a fresh Analyzer, so no walk
		// memo carries over.
		fresh := func(opt cme.Options) *cme.Analyzer {
			var a *cme.Analyzer
			opt.Vectors = out.vecs
			p.call("cme.new", func() (err error) {
				a, err = cme.New(out.np, baseConfig, opt)
				return err
			})
			return a
		}
		for k := 0; k < w.Exacts; k++ {
			a := an
			if k > 0 {
				a = fresh(cme.Options{})
			}
			if a == nil {
				continue
			}
			var rep *cme.Report
			p.call("cme.findmisses", func() (err error) {
				rep, err = a.FindMissesCtx(ctx, budget.Budget{})
				return err
			})
			out.exacts = append(out.exacts, rep)
		}
		for k := 0; k < w.Estimates; k++ {
			a := fresh(cme.Options{Seed: estimateSeed(seed, k)})
			if a == nil {
				continue
			}
			var rep *cme.Report
			p.call("cme.estimate", func() (err error) {
				rep, err = a.EstimateMissesCtx(ctx, budget.Budget{}, estimatePlan)
				return err
			})
			out.estimates = append(out.estimates, rep)
		}
		for i := 0; i < w.Sims; i++ {
			var sim *trace.SimResult
			p.call("trace.simulate", func() (err error) {
				sim, err = trace.SimulateCtx(ctx, out.np, baseConfig, budget.Budget{})
				return err
			})
			out.sims = append(out.sims, sim)
		}
		if w.Design != nil && prep != nil {
			runDesign(ctx, w, prep, p, out)
		}
	})
	return out
}

// setup builds the program and the analysis state: the calls setup_s
// covers.
func setup(w *workload, p *pass, out *outputs) (*cme.Analyzer, *cme.Prepared) {
	var prog *ir.Program
	p.call("kernels.build", func() (err error) {
		prog, err = buildProgram(w.Program, w.N, w.Iters)
		return err
	})
	if prog == nil {
		return nil, nil
	}
	var flat *ir.Subroutine
	p.call("inline.flatten", func() error {
		f, st, err := inline.Flatten(prog, inline.Options{})
		if err == nil {
			flat, out.inlined = f, st.Inlined
		}
		return err
	})
	if flat == nil {
		return nil, nil
	}
	p.call("normalize.normalize", func() (err error) {
		out.np, err = normalize.Normalize(flat)
		return err
	})
	if out.np == nil {
		return nil, nil
	}
	p.call("layout.assign", func() error {
		return layout.AssignProgram(out.np, layout.Options{})
	})
	if !p.ok() {
		return nil, nil
	}
	p.call("reuse.generate", func() error {
		out.vecs = reuse.Generate(out.np, baseConfig, reuse.Options{})
		return nil
	})
	var an *cme.Analyzer
	p.call("cme.new", func() (err error) {
		an, err = cme.New(out.np, baseConfig, cme.Options{Vectors: out.vecs})
		return err
	})
	var prep *cme.Prepared
	if w.Design != nil {
		p.call("cme.prepare", func() (err error) {
			prep, err = cme.Prepare(out.np, cme.Options{})
			return err
		})
	}
	return an, prep
}

// runDesign runs the design-space calls of a pass.
func runDesign(ctx context.Context, w *workload, prep *cme.Prepared, p *pass, out *outputs) {
	d := w.Design
	col := make([]cme.Candidate, len(d.Column))
	for i, cfg := range d.Column {
		col[i] = cme.Candidate{Label: cfg.String(), Config: cfg}
	}
	p.call("cme.solvebatch_column", func() (err error) {
		out.column, err = prep.SolveBatch(ctx, col, cme.BatchOptions{})
		return err
	})
	p.call("cme.solvebatch_grid", func() (err error) {
		out.grid, err = prep.SolveBatch(ctx, d.grid(), cme.BatchOptions{})
		return err
	})

	build := func(n int64) (*ir.NProgram, error) {
		prog, err := buildProgram(w.Program, n, w.Iters)
		if err != nil {
			return nil, err
		}
		return prepareProgram(prog)
	}
	var scaling *cme.ScalingSolver
	p.call("cme.prepare_scaling", func() (err error) {
		scaling, err = cme.PrepareScaling(build, d.LadderCfg, cme.Options{}, cme.ScalingOptions{})
		return err
	})
	if scaling != nil {
		p.call("cme.solve_ladder", func() (err error) {
			out.ladder, err = scaling.SolveLadder(ctx, d.Ladder)
			return err
		})
	}

	workers := runtime.NumCPU()
	var rig *distRig
	p.call("dist.start", func() (err error) {
		rig, err = startDist(workers)
		return err
	})
	if rig != nil {
		p.call("dist.sweep", func() (err error) {
			out.distRows, err = rig.sweep(ctx, distSpec(w))
			return err
		})
		p.call("dist.stop", rig.stop)
	}

	var srv *serveRig
	p.call("serve.start", func() (err error) {
		srv, err = startServe()
		return err
	})
	if srv != nil {
		p.call("serve.sweep", func() (err error) {
			out.serveRows, out.serveJob, err = srv.sweep(ctx, serveRequest(w))
			return err
		})
		p.call("serve.stop", func() error { return srv.stop(ctx) })
	}
}

// distSpec is the design grid as a dist sweep.
func distSpec(w *workload) *dist.SweepSpec {
	d := w.Design
	return &dist.SweepSpec{
		ProgramSpec: dist.ProgramSpec{Program: w.Program, Size: w.N, Iters: w.Iters},
		SolveSpec:   dist.SolveSpec{Exact: true},
		CacheSizes:  d.Sizes, LineSizes: d.Lines, Assocs: d.Assocs,
	}
}

// serveRequest is the design grid as a serve /v1/sweep request.
func serveRequest(w *workload) *serve.SweepRequest {
	d := w.Design
	return &serve.SweepRequest{
		ProgramSpec: serve.ProgramSpec{Program: w.Program, Size: w.N, Iters: w.Iters},
		CacheSizes:  d.Sizes, LineSizes: d.Lines, Assocs: d.Assocs,
		Exact: true,
	}
}
