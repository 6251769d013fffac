package cme

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
	"cachemodel/internal/obs"
)

// TestFusedBudgetCheckpointParity proves the fused batch solver spends
// budget exactly like the solo exact solver: with a hook firing at the Nth
// cooperative checkpoint (every classified point flushes under a hook, and
// Workers=1 fixes the traversal order), a single-candidate batch must trip
// at the same point, degrade the same references, and produce a report
// whose per-reference provenance is bit-identical to solo FindMissesCtx
// under a twin injector.
func TestFusedBudgetCheckpointParity(t *testing.T) {
	build := func() *ir.Subroutine { return copyThenRead(48) }
	cfg := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 2}
	degraded := 0
	for _, n := range []int64{1, 7, 40, 120, 1 << 20} {
		// Solo run. The injector CAS fires exactly once, so each run needs
		// its own injector with the same N.
		np, err := normalize.Normalize(build())
		if err != nil {
			t.Fatal(err)
		}
		if err := layout.AssignProgram(np, layout.Options{}); err != nil {
			t.Fatal(err)
		}
		a, err := New(np, cfg, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		solo, serr := a.FindMissesCtx(context.Background(), budget.Budget{Hook: faultinject.ExhaustAt(n).Hook()})
		if serr != nil {
			t.Fatalf("n=%d: solo did not degrade: %v", n, serr)
		}

		// Batch run: one candidate, same geometry, twin injector.
		_, p := prepBatch(t, build(), Options{Workers: 1})
		reps, berr := p.SolveBatch(context.Background(),
			[]Candidate{{Label: "twin", Config: cfg}},
			BatchOptions{Workers: 1, Budget: budget.Budget{Hook: faultinject.ExhaustAt(n).Hook()}})
		if berr != nil {
			t.Fatalf("n=%d: batch did not degrade: %v", n, berr)
		}
		got := reps[0]

		if got.Tier != solo.Tier || got.Degraded != solo.Degraded {
			t.Errorf("n=%d: batch tier=%v degraded=%v, solo tier=%v degraded=%v",
				n, got.Tier, got.Degraded, solo.Tier, solo.Degraded)
		}
		if len(got.Refs) != len(solo.Refs) {
			t.Fatalf("n=%d: %d refs vs %d", n, len(got.Refs), len(solo.Refs))
		}
		for i, g := range got.Refs {
			w := solo.Refs[i]
			if g.Tier != w.Tier || g.Complete != w.Complete || g.Sampled != w.Sampled ||
				g.Analyzed != w.Analyzed || g.Hits != w.Hits || g.Cold != w.Cold || g.Repl != w.Repl {
				t.Errorf("n=%d ref %d (%s): batch {tier=%v complete=%v sampled=%v n=%d hit=%d cold=%d repl=%d} vs solo {tier=%v complete=%v sampled=%v n=%d hit=%d cold=%d repl=%d}",
					n, i, w.Ref.ID,
					g.Tier, g.Complete, g.Sampled, g.Analyzed, g.Hits, g.Cold, g.Repl,
					w.Tier, w.Complete, w.Sampled, w.Analyzed, w.Hits, w.Cold, w.Repl)
			}
		}
		if solo.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no injection point actually degraded; the parity test proved nothing")
	}

	// A budgeted multi-candidate batch keeps the symbolic fast path: its
	// replayed per-point stream must trip every budget at the same point
	// as enumeration (NoSymbolic), with identical counts, provenance and
	// spend. The geometry tier is off on both sides so the fused solver
	// does all the work.
	cands := []Candidate{
		{Label: "512/32/1", Config: cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}},
		{Label: "1K/32/2", Config: cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2}},
		{Label: "2K/32/1", Config: cache.Config{SizeBytes: 2048, LineBytes: 32, Assoc: 1}},
		{Label: "1K/64/2", Config: cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}},
	}
	solve := func(opt Options, b budget.Budget) []*Report {
		_, a := prepKernel(t, kernels.Tomcatv(12, 4), cands[0].Config, opt)
		reps, err := a.p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 1, Budget: b, NoGeom: true})
		if err != nil {
			t.Fatalf("SolveBatch: %v", err)
		}
		return reps
	}
	var points, scan int64
	for _, rep := range solve(Options{}, budget.Budget{MaxScan: 1 << 50}) {
		points, scan = rep.BudgetSpent.Points, rep.BudgetSpent.Scan
	}
	type bcase struct {
		name string
		b    func() budget.Budget
	}
	cases := []bcase{
		{"points/7", func() budget.Budget { return budget.Budget{MaxPoints: points / 7} }},
		{"points/2", func() budget.Budget { return budget.Budget{MaxPoints: points / 2} }},
		{"scan/9", func() budget.Budget { return budget.Budget{MaxScan: scan / 9} }},
		{"scan/3", func() budget.Budget { return budget.Budget{MaxScan: scan / 3} }},
	}
	// Under a hook every checkpoint flushes, one per classified point.
	for _, n := range []int64{points / 20, points / 4, points * 2 / 3} {
		cases = append(cases, bcase{fmt.Sprintf("hook@%d", n),
			func() budget.Budget { return budget.Budget{Hook: faultinject.ExhaustAt(n).Hook()} }})
	}
	symC := obs.Default.Counter("cme_points_symbolic_total")
	degraded = 0
	for _, bc := range cases {
		want := solve(Options{NoSymbolic: true}, bc.b())
		s0 := symC.Value()
		got := solve(Options{}, bc.b())
		if symC.Value() == s0 {
			t.Errorf("%s: budgeted batch never took the symbolic path", bc.name)
		}
		for i, g := range got {
			w := want[i]
			label := bc.name + " " + cands[i].Label
			sameRefReports(t, label, w, g)
			gs, ws := g.BudgetSpent, w.BudgetSpent
			if gs.Points != ws.Points || gs.Scan != ws.Scan || gs.Checkpoints != ws.Checkpoints || gs.Graces != ws.Graces {
				t.Errorf("%s: spent %v (graces %d), NoSymbolic %v (graces %d)", label, gs, gs.Graces, ws, ws.Graces)
			}
			if w.Degraded {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no budget degraded a batch candidate; the symbolic parity cases proved nothing")
	}
}

// TestSolveBatchPartialFailure: an invalid candidate is recorded in the
// returned *BatchError with a nil report while the valid candidates still
// solve, bit-identically to their solo runs.
func TestSolveBatchPartialFailure(t *testing.T) {
	_, p := prepBatch(t, stencil1D(64), Options{})
	good := cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}
	bad := cache.Config{SizeBytes: 100, LineBytes: 32, Assoc: 1} // not line×assoc divisible
	cands := []Candidate{
		{Label: "good", Config: good},
		{Label: "bad", Config: bad},
		{Label: "good2", Config: good},
	}
	reps, err := p.SolveBatch(context.Background(), cands, BatchOptions{Workers: 2})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if len(be.Errs) != 1 || be.Errs[1] == nil {
		t.Fatalf("Errs = %v, want exactly index 1", be.Errs)
	}
	if reps[1] != nil {
		t.Error("failed candidate still produced a report")
	}
	want := soloReport(t, func() *ir.Subroutine { return stencil1D(64) }, good, nil, Options{}, nil)
	sameCounts(t, "good", reps[0], want)
	sameCounts(t, "good2", reps[2], want)
}
