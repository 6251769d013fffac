package cme

import (
	"context"
	"errors"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/kernels"
	"cachemodel/internal/obs"
)

// oddConfigs are non-power-of-two geometries: 24-byte lines force the
// `%` fallbacks in the trace walker and the classifier's set congruence,
// and 48 sets × 3 ways exercises the non-mask set reduction.
func oddConfigs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 3456, LineBytes: 24, Assoc: 3}, // 144 lines, 48 sets, 3-way
		{SizeBytes: 1536, LineBytes: 24, Assoc: 2}, // 64 lines, 32 sets, odd line
	}
}

// TestSymbolicEquivalence sweeps every built-in kernel under the golden and
// the non-power-of-two geometries and checks the symbolic region fast path
// is bit-identical to full per-point enumeration at several worker counts.
func TestSymbolicEquivalence(t *testing.T) {
	const n = 8
	configs := append(goldenConfigs(), oddConfigs()...)
	for _, spec := range kernels.Suite() {
		for _, cfg := range configs {
			label := spec.Name + " [" + cfg.String() + "]"
			_, base := prepKernel(t, spec.Build(n), cfg, Options{Workers: 1, NoSymbolic: true})
			want := base.FindMisses()
			for _, workers := range []int{1, 3, 8} {
				_, sym := prepKernel(t, spec.Build(n), cfg, Options{Workers: workers})
				sameRefReports(t, label+" symbolic", want, sym.FindMisses())
			}
		}
	}
}

// TestSymbolicOddGeometry pins the solver against the reference simulator
// under non-power-of-two geometry, symbolic fast path on and off. With
// 24-byte lines the arrays of copyThenRead(48) stay line-aligned (384 =
// 16·24), so its analysis is exact; stencil1D(64) and transpose2D straddle
// array boundaries or walk transposed, where the reuse-vector model is
// conservative by construction — those are held to the conservative bound
// plus on/off bit-identity.
func TestSymbolicOddGeometry(t *testing.T) {
	for _, prog := range batchPrograms {
		for _, cfg := range oddConfigs() {
			label := prog.name + " [" + cfg.String() + "]"
			np, on := prep(t, prog.build(), cfg, Options{})
			npOff, off := prep(t, prog.build(), cfg, Options{NoSymbolic: true})
			sameRefReports(t, label+" on/off", off.FindMisses(), on.FindMisses())
			checkConservative(t, np, on, cfg)
			checkConservative(t, npOff, off, cfg)
			if prog.name == "copyread" {
				checkExact(t, np, on, cfg)
				checkExact(t, npOff, off, cfg)
			}
		}
	}
}

// TestSymbolicBudgetParity: under a binding scan budget the symbolic path
// replays the per-point cost stream of each counted region, so it must
// degrade at exactly the same point as enumeration and produce a
// bit-identical report, including per-reference provenance.
func TestSymbolicBudgetParity(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	for _, spec := range []string{"hydro", "sor2d", "transpose"} {
		for _, s := range kernels.Suite() {
			if s.Name != spec {
				continue
			}
			_, plain := prepKernel(t, s.Build(10), cfg, Options{Workers: 1, NoSymbolic: true})
			_, sym := prepKernel(t, s.Build(10), cfg, Options{Workers: 1})
			full, err := plain.FindMissesCtx(context.Background(), budget.Budget{MaxScan: 1 << 50})
			if err != nil {
				t.Fatalf("%s: measuring run failed: %v", spec, err)
			}
			b := budget.Budget{MaxScan: full.BudgetSpent.Scan / 2}
			if b.MaxScan == 0 {
				t.Fatalf("%s: full run reported no scan work", spec)
			}
			want, werr := plain.FindMissesCtx(context.Background(), b)
			got, gerr := sym.FindMissesCtx(context.Background(), b)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: errors diverged: %v vs %v", spec, werr, gerr)
			}
			if !want.Degraded {
				t.Fatalf("%s: budget %d did not force degradation", spec, b.MaxScan)
			}
			sameRefReports(t, spec+" budgeted symbolic", want, got)
		}
	}
}

// TestSymbolicFaultParity injects budget exhaustion at fixed checkpoints of
// a single-worker run (single worker so the checkpoint order is
// deterministic) and checks the symbolic path fails at the same checkpoint
// with a bit-identical partial report.
func TestSymbolicFaultParity(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	for _, at := range []int64{1, 7, 50, 400} {
		run := func(opt Options) (*Report, error) {
			_, a := prepKernel(t, kernels.Hydro(16, 16), cfg, opt)
			inj := faultinject.ExhaustAt(at)
			rep, err := a.FindMissesCtx(context.Background(),
				budget.Budget{Hook: inj.Hook(), NoFallback: true})
			if !inj.Fired() {
				t.Fatalf("at=%d: injector never fired (%d checkpoints seen)", at, inj.Checkpoints())
			}
			return rep, err
		}
		want, werr := run(Options{Workers: 1, NoSymbolic: true})
		got, gerr := run(Options{Workers: 1})
		if !errors.Is(werr, cerr.ErrBudgetExceeded) || !errors.Is(gerr, cerr.ErrBudgetExceeded) {
			t.Fatalf("at=%d: errs = %v / %v, want ErrBudgetExceeded", at, werr, gerr)
		}
		sameRefReports(t, "fault parity", want, got)
	}
}

// TestSolveBatchSymbolicEquivalence runs the batch design-space sweep with
// the fused symbolic fast path on and off, over the golden candidates plus
// non-power-of-two geometries, and requires bit-identical reports.
func TestSolveBatchSymbolicEquivalence(t *testing.T) {
	cands := sweepCandidates()
	for _, cfg := range oddConfigs() {
		cands = append(cands, Candidate{Label: cfg.String(), Config: cfg})
	}
	for _, prog := range batchPrograms {
		_, on := prepBatch(t, prog.build(), Options{})
		_, off := prepBatch(t, prog.build(), Options{NoSymbolic: true})
		gotReps, err := on.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: SolveBatch: %v", prog.name, err)
		}
		wantReps, err := off.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: SolveBatch (nosymbolic): %v", prog.name, err)
		}
		for i, c := range cands {
			sameCounts(t, prog.name+"/"+c.Label, gotReps[i], wantReps[i])
		}
	}
}

// TestSymbolicCoverageCounters: solving a kernel with loop-invariant inner
// reuse must route a nonzero share of points through the symbolic counters,
// and the symbolic/enumerated split must cover every classified point.
// (Package tests run sequentially, so global counter deltas are safe.)
func TestSymbolicCoverageCounters(t *testing.T) {
	symC := obs.Default.Counter("cme_points_symbolic_total")
	enumC := obs.Default.Counter("cme_points_enumerated_total")
	classC := obs.Default.Counter("cme_points_classified_total")
	s0, e0, c0 := symC.Value(), enumC.Value(), classC.Value()

	cfg := cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Tomcatv(12, 4), cfg, Options{Workers: 1})
	rep := a.FindMisses()

	sym, enum, class := symC.Value()-s0, enumC.Value()-e0, classC.Value()-c0
	if sym <= 0 {
		t.Errorf("symbolic fast path never fired: %d symbolic of %d classified", sym, class)
	}
	if sym+enum != class {
		t.Errorf("symbolic %d + enumerated %d != classified %d", sym, enum, class)
	}
	var analyzed int64
	for _, rr := range rep.Refs {
		analyzed += rr.Analyzed
	}
	if class != analyzed {
		t.Errorf("classified counter %d != report analyzed %d", class, analyzed)
	}

	// With the fast path disabled every point must be enumerated.
	s1, e1, c1 := symC.Value(), enumC.Value(), classC.Value()
	_, off := prepKernel(t, kernels.Tomcatv(12, 4), cfg, Options{Workers: 1, NoSymbolic: true})
	off.FindMisses()
	if d := symC.Value() - s1; d != 0 {
		t.Errorf("NoSymbolic run still counted %d points symbolically", d)
	}
	if e, c := enumC.Value()-e1, classC.Value()-c1; e != c {
		t.Errorf("NoSymbolic run: enumerated %d != classified %d", e, c)
	}
}
