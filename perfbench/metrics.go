package main

import (
	"context"
	"math"
	"sort"
	"time"
)

// layers are the modules the benchmark times, plus "bench" for the time
// between layer calls.
var layers = []string{"bench", "kernels", "inline", "normalize", "layout", "reuse", "cme", "trace", "dist", "serve"}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// medianOf returns the median over passes of f.
func medianOf(recs []*passRecord, f func(*passRecord) float64) float64 {
	vs := make([]float64, len(recs))
	for i, r := range recs {
		vs[i] = f(r)
	}
	return median(vs)
}

// pooled returns the median of every duration recorded under name in
// recs: calls made many times a pass pool their samples.
func pooled(recs []*passRecord, name string) float64 {
	var ds []time.Duration
	for _, r := range recs {
		ds = append(ds, r.p.durs[name]...)
	}
	return median(seconds(ds))
}

func (r *runReport) split() (traced, untraced []*passRecord) {
	for _, rec := range r.passes {
		if rec.p.traced {
			traced = append(traced, rec)
		} else {
			untraced = append(untraced, rec)
		}
	}
	return traced, untraced
}

// result assembles the result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func (r *runReport) result() result {
	res := result{Attempted: r.attempts, Failed: len(r.failures)}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if r.opt.traced {
		res.Metrics = r.layerMetrics()
	} else {
		res.Metrics = r.endToEnd()
	}
	return res
}

// endToEnd returns the end-to-end metrics: medians over the run's passes.
func (r *runReport) endToEnd() map[string]metric {
	_, recs := r.split()
	inCalls := func(group string) float64 {
		return medianOf(recs, func(rec *passRecord) float64 { return rec.p.inCalls[group].Seconds() })
	}
	return map[string]metric{
		"setup_s":          {inCalls("setup"), "s"},
		"exact_s":          {pooled(recs, "cme.findmisses"), "s"},
		"sampled_s":        {pooled(recs, "cme.estimate"), "s"},
		"simulate_s":       {pooled(recs, "trace.simulate"), "s"},
		"total_s":          {inCalls("pass"), "s"},
		"exact_vs_sim_pct": {medianOf(recs, func(rec *passRecord) float64 { return rec.exactness.pctOfSim() }), "%"},
		"sampled_err_pp":   {medianOf(recs, func(rec *passRecord) float64 { return rec.sampledErr }), "pp"},
		"alloc_mb":         {medianOf(recs, func(rec *passRecord) float64 { return float64(rec.allocBytes) / 1e6 }), "MB"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// perLayerUnits gives every per-layer metric its unit; BENCHMARK.json
// lists the same names.
var perLayerUnits = map[string]string{
	"kernels.build_s": "s", "inline.flatten_s": "s", "inline.calls_inlined": "count",
	"normalize.normalize_s": "s", "normalize.refs": "count", "layout.assign_s": "s",

	"reuse.generate_s": "s", "reuse.vectors": "count", "reuse.vectors_per_ref": "ratio", "reuse.alloc_mb": "MB",

	"cme.new_s": "s", "cme.findmisses_s": "s", "cme.points": "count", "cme.symbolic_pct": "%",
	"cme.walks": "count", "cme.walk_steps": "count", "cme.walk_steps_per_walk": "ratio",
	"cme.memo_hit_pct": "%", "cme.tiles": "count",
	"cme.refs_inexact": "count", "cme.overcount_misses": "count",
	"cme.estimate_s": "s", "sampling.draws": "count", "sampling.early_stops": "count",

	"cme.prepare_s": "s", "cme.solvebatch_column_s": "s", "cme.solvebatch_grid_s": "s",
	"cme.geom.anchor_solves": "count", "cme.geom.evals": "count", "cme.geom.fallbacks": "count",
	"cme.batch.dedup": "count", "cme.fused_walk_candidates": "ratio",
	"cme.prepare_scaling_s": "s", "cme.solve_ladder_s": "s", "cme.scaling.fit_solves": "count",
	"cme.scaling.closed_evals": "count", "cme.scaling.fallbacks": "count",

	"trace.simulate_s": "s", "trace.accesses": "count", "trace.ns_per_access": "ns",

	"dist.sweep_s": "s", "dist.units": "count", "dist.leases": "count", "dist.unit_solve_ms": "ms",
	"dist.lease_wait_ms": "ms", "dist.stolen": "count", "dist.retried": "count", "dist.overhead_s": "s",

	"serve.sweep_s": "s", "serve.queue_wait_ms": "ms", "serve.job_s": "s",
	"serve.singleflight_hits": "count", "serve.shed": "count",

	"bench.self_s": "s", "kernels.self_s": "s", "inline.self_s": "s", "normalize.self_s": "s",
	"layout.self_s": "s", "reuse.self_s": "s", "cme.self_s": "s", "trace.self_s": "s",
	"dist.self_s": "s", "serve.self_s": "s",
	"bench.layer_sum_s": "s", "bench.untraced_total_s": "s", "bench.tracing_overhead_s": "s",
}

// layerMetrics returns the per-layer metrics: each the median over the
// traced passes of its per-pass value.
func (r *runReport) layerMetrics() map[string]metric {
	traced, untraced := r.split()
	perPass := make([]map[string]float64, len(traced))
	for i, rec := range traced {
		perPass[i] = passLayerValues(rec)
	}
	out := map[string]metric{}
	for name, unit := range perLayerUnits {
		vs := make([]float64, 0, len(perPass))
		for _, m := range perPass {
			if v, ok := m[name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			out[name] = metric{median(vs), unit}
		}
	}
	// The layers' self times sum to a traced pass's time in calls, which
	// should match the untraced passes' (total_s) to within the tracing
	// overhead: the difference of whole traced and untraced passes.
	inCalls := func(rec *passRecord) float64 { return rec.p.inCalls["pass"].Seconds() }
	wall := func(rec *passRecord) float64 { return rec.p.first("pass").Seconds() }
	out["bench.untraced_total_s"] = metric{medianOf(untraced, inCalls), "s"}
	out["bench.tracing_overhead_s"] = metric{medianOf(traced, wall) - medianOf(untraced, wall), "s"}
	return out
}

// passLayerValues computes one traced pass's per-layer values.
func passLayerValues(rec *passRecord) map[string]float64 {
	p, o := rec.p, rec.out
	sec := func(name string) float64 { return p.first(name).Seconds() }
	med := func(name string) float64 { return median(seconds(p.durs[name])) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// histMean is the mean observation of a histogram over the spans
	// named in spans.
	histMean := func(hist string, spans ...string) float64 {
		var sum, n int64
		for _, s := range spans {
			sum += p.counter(s, hist+"_sum")
			n += p.counter(s, hist+"_count")
		}
		return ratio(float64(sum), float64(n))
	}
	ctr := func(span, name string) float64 { return float64(p.counter(span, name)) }
	// exact reads a counter per FindMisses call, so the figures do not
	// scale with the number of calls a pass makes.
	exact := func(name string) float64 {
		return ratio(ctr("cme.findmisses", name), float64(len(p.durs["cme.findmisses"])))
	}
	both := func(a, b, name string) float64 { return ctr(a, name) + ctr(b, name) }

	m := map[string]float64{
		"kernels.build_s":       sec("kernels.build"),
		"inline.flatten_s":      sec("inline.flatten"),
		"inline.calls_inlined":  float64(o.inlined),
		"normalize.normalize_s": sec("normalize.normalize"),
		"normalize.refs":        float64(o.refs),
		"layout.assign_s":       sec("layout.assign"),

		"reuse.generate_s":      sec("reuse.generate"),
		"reuse.vectors":         float64(o.vectors),
		"reuse.vectors_per_ref": ratio(float64(o.vectors), float64(o.refs)),

		"cme.new_s":            med("cme.new"),
		"cme.findmisses_s":     med("cme.findmisses"),
		"cme.points":           exact("cme_points_classified_total"),
		"cme.walks":            exact("cme_walks_total"),
		"cme.walk_steps":       exact("cme_walk_steps_total"),
		"cme.tiles":            exact("cme_tiles_solved_total"),
		"cme.refs_inexact":     float64(rec.exactness.refsInexact),
		"cme.overcount_misses": float64(rec.exactness.overMisses),

		"cme.estimate_s": med("cme.estimate"),

		"cme.prepare_s":             sec("cme.prepare"),
		"cme.solvebatch_column_s":   sec("cme.solvebatch_column"),
		"cme.solvebatch_grid_s":     sec("cme.solvebatch_grid"),
		"cme.geom.anchor_solves":    both("cme.solvebatch_column", "cme.solvebatch_grid", "cme_geom_anchor_solves_total"),
		"cme.geom.evals":            both("cme.solvebatch_column", "cme.solvebatch_grid", "cme_geom_eval_total"),
		"cme.geom.fallbacks":        both("cme.solvebatch_column", "cme.solvebatch_grid", "cme_geom_fallback_total"),
		"cme.batch.dedup":           both("cme.solvebatch_column", "cme.solvebatch_grid", "cme_batch_dedup_total"),
		"cme.fused_walk_candidates": histMean("cme_fused_walk_candidates", "cme.solvebatch_column", "cme.solvebatch_grid"),

		"cme.prepare_scaling_s":    sec("cme.prepare_scaling"),
		"cme.solve_ladder_s":       sec("cme.solve_ladder"),
		"cme.scaling.fit_solves":   both("cme.prepare_scaling", "cme.solve_ladder", "cme_scaling_fit_solves_total"),
		"cme.scaling.closed_evals": both("cme.prepare_scaling", "cme.solve_ladder", "cme_scaling_closed_evals_total"),
		"cme.scaling.fallbacks":    both("cme.prepare_scaling", "cme.solve_ladder", "cme_scaling_fallbacks_total"),

		"trace.simulate_s":    med("trace.simulate"),
		"trace.accesses":      float64(o.simAccesses),
		"trace.ns_per_access": ratio(med("trace.simulate")*1e9, float64(o.simAccesses)),

		"dist.sweep_s":       sec("dist.sweep"),
		"dist.units":         ctr("dist.sweep", "dist_units_total"),
		"dist.leases":        ctr("dist.sweep", "dist_units_leased_total"),
		"dist.unit_solve_ms": histMean("dist_unit_solve_ms", "dist.sweep"),
		"dist.lease_wait_ms": histMean("dist_lease_wait_ms", "dist.sweep"),
		"dist.stolen":        ctr("dist.sweep", "dist_units_stolen_total"),
		"dist.retried":       ctr("dist.sweep", "dist_units_retried_total"),

		"serve.sweep_s":           sec("serve.sweep"),
		"serve.queue_wait_ms":     histMean("serve_queue_wait_ms", "serve.sweep"),
		"serve.job_s":             o.serveJob.Seconds(),
		"serve.singleflight_hits": ctr("serve.sweep", "serve_singleflight_hits_total"),
		"serve.shed":              ctr("serve.sweep", "serve_shed_total"),
	}
	sym, enum := exact("cme_points_symbolic_total"), exact("cme_points_enumerated_total")
	m["cme.symbolic_pct"] = 100 * ratio(sym, sym+enum)
	m["cme.walk_steps_per_walk"] = ratio(m["cme.walk_steps"], m["cme.walks"])
	hits := exact("cme_walk_memo_hits_total")
	m["cme.memo_hit_pct"] = 100 * ratio(hits, hits+m["cme.walks"])
	m["dist.overhead_s"] = m["dist.sweep_s"] - m["cme.solvebatch_grid_s"]
	for _, s := range p.spans {
		if s.Name == "reuse.generate" {
			m["reuse.alloc_mb"] = float64(s.AllocBytes) / 1e6
		}
	}
	// Per EstimateMisses call, as for FindMisses above.
	n := float64(len(p.durs["cme.estimate"]))
	m["sampling.draws"] = ratio(ctr("cme.estimate", "sampling_draws_total"), n)
	m["sampling.early_stops"] = ratio(ctr("cme.estimate", "sampling_early_stops_total"), n)

	// bench.self_s is the time between calls: heap collections, the
	// counter snapshots of tracing and the benchmark's own glue.
	self := p.selfTimes()
	var sum time.Duration
	for _, l := range layers {
		m[l+".self_s"] = self[l].Seconds()
		if l != "bench" {
			sum += self[l]
		}
	}
	m["bench.layer_sum_s"] = sum.Seconds()
	return m
}

// derived holds the simulator-as-bar rows of a traced run. They are
// derived from measured medians and are not gated.
type derived struct {
	Note string `json:"note"`
	// ExactOverSimulate and SampledOverSimulate are exact_s/simulate_s and
	// sampled_s/simulate_s at the workload's size N.
	N                   int64   `json:"n"`
	ExactOverSimulate   float64 `json:"exact_over_simulate"`
	SampledOverSimulate float64 `json:"sampled_over_simulate"`
	// The sampled and simulator times at a second size fit a power law
	// t = a·N^b each; CrossoverN is where the two curves meet, the size
	// beyond which EstimateMisses is faster than simulation. It is null
	// when the simulator's exponent does not exceed the estimate's.
	SecondN          int64    `json:"second_n"`
	SampledExponent  float64  `json:"sampled_exponent"`
	SimulateExponent float64  `json:"simulate_exponent"`
	CrossoverN       *float64 `json:"crossover_n"`
}

// measureDerived computes the simulator-as-bar rows: the ratios at N from
// the traced passes, and the crossover size from one more pass at N/2
// with the same single-geometry calls. That pass's checks count with the
// run's.
func measureDerived(ctx context.Context, w *workload, seed int64, r *runReport) *derived {
	traced, _ := r.split()
	exact := pooled(traced, "cme.findmisses")
	sampled := pooled(traced, "cme.estimate")
	sim := pooled(traced, "trace.simulate")
	d := &derived{Note: "derived from measured medians; not gated", N: w.N, SecondN: w.N / 2}
	if sim <= 0 {
		return d
	}
	d.ExactOverSimulate, d.SampledOverSimulate = exact/sim, sampled/sim

	half := *w
	half.N, half.Design, half.Exacts, half.Estimates, half.Sims = d.SecondN, nil, 1, 3, 9
	rec := onePass(ctx, &half, seed, false)
	r.attempts += rec.p.attempts
	r.failures = append(r.failures, rec.p.failures...)
	sampled2 := pooled([]*passRecord{rec}, "cme.estimate")
	sim2 := pooled([]*passRecord{rec}, "trace.simulate")
	if sampled2 <= 0 || sim2 <= 0 {
		return d
	}
	scale := math.Log(float64(w.N) / float64(d.SecondN))
	d.SampledExponent = math.Log(sampled/sampled2) / scale
	d.SimulateExponent = math.Log(sim/sim2) / scale
	if gap := d.SimulateExponent - d.SampledExponent; gap > 0 {
		n := float64(w.N) * math.Pow(sampled/sim, 1/gap)
		d.CrossoverN = &n
	}
	return d
}
