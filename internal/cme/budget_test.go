package cme

import (
	"context"
	"errors"
	"testing"
	"time"

	"cachemodel/internal/budget"
	"cachemodel/internal/cache"
	"cachemodel/internal/cerr"
	"cachemodel/internal/faultinject"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
)

// prepKernel inlines, normalises and lays out a whole-program kernel.
func prepKernel(t testing.TB, p *ir.Program, cfg cache.Config, opt Options) (*ir.NProgram, *Analyzer) {
	t.Helper()
	flat, _, err := inline.Flatten(p, inline.Options{})
	if err != nil {
		t.Fatalf("inline: %v", err)
	}
	np, err := normalize.Normalize(flat)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if err := layout.AssignProgram(np, layout.Options{}); err != nil {
		t.Fatalf("layout: %v", err)
	}
	a, err := New(np, cfg, opt)
	if err != nil {
		t.Fatalf("analyzer: %v", err)
	}
	return np, a
}

// refCounts extracts the per-ref classification counts, in report order,
// for bit-identity comparisons across analyzers (ref pointers differ
// between separately prepared analyzers, report order does not).
func refCounts(rep *Report) [][4]int64 {
	out := make([][4]int64, len(rep.Refs))
	for i := range rep.Refs {
		rr := rep.Refs[i]
		out[i] = [4]int64{rr.Hits, rr.Cold, rr.Repl, rr.Analyzed}
	}
	return out
}

// checkCoherent asserts the partial-result invariants every report must
// satisfy, interrupted or not.
func checkCoherent(t *testing.T, rep *Report) {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	for i := range rep.Refs {
		rr := rep.Refs[i]
		if rr.Hits+rr.Cold+rr.Repl != rr.Analyzed {
			t.Errorf("ref %s: hits %d + cold %d + repl %d != analyzed %d",
				rr.Ref, rr.Hits, rr.Cold, rr.Repl, rr.Analyzed)
		}
		if rr.Analyzed > rr.Volume {
			t.Errorf("ref %s: analyzed %d > volume %d", rr.Ref, rr.Analyzed, rr.Volume)
		}
		if rr.Complete && rr.Tier == TierExact && rr.Analyzed != rr.Volume {
			t.Errorf("ref %s: complete exact but analyzed %d != volume %d", rr.Ref, rr.Analyzed, rr.Volume)
		}
	}
	if c := rep.Coverage(); c < 0 || c > 1 {
		t.Errorf("coverage %f outside [0,1]", c)
	}
	if mr := rep.MissRatio(); mr < 0 || mr > 100 {
		t.Errorf("miss ratio %f outside [0,100]", mr)
	}
}

// TestNoBudgetBitIdentical: the unlimited context path must produce exactly
// the result of the legacy entry point — the checkpoint machinery is
// compiled out of the hot loop when no budget is armed.
func TestNoBudgetBitIdentical(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	_, legacy := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{})
	_, ctxed := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{})
	want := legacy.FindMisses()
	got, err := ctxed.FindMissesCtx(context.Background(), budget.Budget{})
	if err != nil {
		t.Fatalf("FindMissesCtx with zero budget: %v", err)
	}
	if got.Degraded || got.Tier != TierExact {
		t.Fatalf("zero budget degraded=%v tier=%v, want exact", got.Degraded, got.Tier)
	}
	if want.ExactMisses() != got.ExactMisses() {
		t.Fatalf("misses differ: legacy %d vs ctx %d", want.ExactMisses(), got.ExactMisses())
	}
	wc, gc := refCounts(want), refCounts(got)
	if len(wc) != len(gc) {
		t.Fatalf("ref count differs: legacy %d vs ctx %d", len(wc), len(gc))
	}
	for i, w := range wc {
		if gc[i] != w {
			t.Fatalf("ref %s counts differ: legacy %v vs ctx %v", want.Refs[i].Ref, w, gc[i])
		}
	}
}

// TestCancellationMidFindMisses: cancelling at an injected checkpoint must
// surface ErrCanceled (never degrade), leave a coherent partial report, and
// leave the analyzer reusable — a later uninterrupted run yields the
// original exact result bit for bit.
func TestCancellationMidFindMisses(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{Workers: 1})
	inj := faultinject.CancelAt(40)
	rep, err := a.FindMissesCtx(context.Background(), budget.Budget{Hook: inj.Hook()})
	if !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !inj.Fired() {
		t.Fatal("injector never fired")
	}
	checkCoherent(t, rep)
	if rep.Degraded {
		t.Fatal("cancellation must not degrade")
	}
	var incomplete int
	for i := range rep.Refs {
		if !rep.Refs[i].Complete {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Fatal("cancellation at checkpoint 40 left no incomplete refs — fault landed too late")
	}
	// The analyzer is reusable: an uninterrupted rerun matches a fresh one.
	_, fresh := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{Workers: 1})
	want, got := fresh.FindMisses(), a.FindMisses()
	if want.ExactMisses() != got.ExactMisses() {
		t.Fatalf("post-cancel rerun differs: fresh %d vs reused %d", want.ExactMisses(), got.ExactMisses())
	}
	wc, gc := refCounts(want), refCounts(got)
	if len(wc) != len(gc) {
		t.Fatalf("ref count differs: fresh %d vs reused %d", len(wc), len(gc))
	}
	for i, w := range wc {
		if gc[i] != w {
			t.Fatalf("post-cancel ref %s counts differ: %v vs %v", want.Refs[i].Ref, w, gc[i])
		}
	}
}

// TestRealContextCancellation: an already-cancelled context stops the run
// almost immediately with ErrCanceled.
func TestRealContextCancellation(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := a.FindMissesCtx(ctx, budget.Budget{})
	if !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	checkCoherent(t, rep)
}

// TestTightDeadlineReturnsFast: the acceptance bound — a 1 ms deadline on
// MMT must return within 50 ms, either degraded or with ErrBudgetExceeded.
func TestTightDeadlineReturnsFast(t *testing.T) {
	cfg := cache.Default32K(2)
	_, a := prepKernel(t, kernels.MMT(48, 12, 12), cfg, Options{})
	start := time.Now()
	rep, err := a.FindMissesCtx(context.Background(), budget.Budget{Deadline: time.Millisecond})
	wall := time.Since(start)
	limit := 50 * time.Millisecond
	if raceEnabled {
		limit = 500 * time.Millisecond
	}
	if wall > limit {
		t.Fatalf("1ms-deadline run took %s, want < %s", wall, limit)
	}
	if err != nil && !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want nil (degraded) or ErrBudgetExceeded", err)
	}
	if err == nil && !rep.Degraded {
		t.Fatal("1ms deadline neither errored nor degraded")
	}
	checkCoherent(t, rep)
	if rep.BudgetSpent.Checkpoints == 0 {
		t.Fatal("budgeted run must attach BudgetSpent provenance")
	}
}

// TestNoFallbackFailsWithPartial: NoFallback surfaces exhaustion as an
// error carrying the partial exact result instead of degrading.
func TestNoFallbackFailsWithPartial(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{Workers: 1})
	b := budget.Budget{MaxPoints: 200, NoFallback: true}
	rep, err := a.FindMissesCtx(context.Background(), b)
	if !errors.Is(err, cerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	checkCoherent(t, rep)
	if rep.Degraded {
		t.Fatal("NoFallback run must not degrade")
	}
	if rep.Tier != TierExact {
		t.Fatalf("NoFallback partial tier = %v, want exact", rep.Tier)
	}
}

// TestDegradationAtAnyCheckpoint: injected exhaustion at a spread of
// checkpoint indices always yields a complete, degraded report.
func TestDegradationAtAnyCheckpoint(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	for _, n := range []int64{1, 3, 17, 100, 500} {
		_, a := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{Workers: 1})
		inj := faultinject.ExhaustAt(n)
		rep, err := a.FindMissesCtx(context.Background(), budget.Budget{Hook: inj.Hook()})
		if err != nil {
			t.Fatalf("checkpoint %d: err = %v, want graceful degradation", n, err)
		}
		if !inj.Fired() {
			t.Fatalf("checkpoint %d: injector never fired (run finished in fewer checkpoints)", n)
		}
		if !rep.Degraded || rep.Tier == TierExact {
			t.Fatalf("checkpoint %d: degraded=%v tier=%v, want degraded non-exact", n, rep.Degraded, rep.Tier)
		}
		checkCoherent(t, rep)
		for i := range rep.Refs {
			if !rep.Refs[i].Complete {
				t.Fatalf("checkpoint %d: ref %s incomplete after degradation", n, rep.Refs[i].Ref)
			}
		}
	}
}

// TestLadderReachesProbabilistic: a budget too small even for the sampled
// grace allowance pushes the run down to the probabilistic tier, which
// always completes.
func TestLadderReachesProbabilistic(t *testing.T) {
	cfg := cache.Config{SizeBytes: 4096, LineBytes: 32, Assoc: 2}
	_, a := prepKernel(t, kernels.Hydro(24, 24), cfg, Options{Workers: 1})
	rep, err := a.FindMissesCtx(context.Background(), budget.Budget{MaxPoints: 1})
	if err != nil {
		t.Fatalf("err = %v, want graceful degradation", err)
	}
	if !rep.Degraded {
		t.Fatal("1-point budget did not degrade")
	}
	checkCoherent(t, rep)
	var probabilistic int
	for i := range rep.Refs {
		if !rep.Refs[i].Complete {
			t.Fatalf("ref %s incomplete after full ladder", rep.Refs[i].Ref)
		}
		if rep.Refs[i].Tier == TierProbabilistic {
			probabilistic++
		}
	}
	if probabilistic == 0 {
		t.Fatalf("no ref reached the probabilistic tier (report tier %v)", rep.Tier)
	}
	if rep.BudgetSpent.Graces == 0 {
		t.Fatalf("BudgetSpent = %+v, want at least one grace re-arm recorded", rep.BudgetSpent)
	}
}

// BenchmarkBudgetOverhead compares the unbudgeted FindMisses hot loop
// against the same loop carrying an armed (but never-tripping) meter. The
// per-point checkpoint cost must stay under ~2%.
func BenchmarkBudgetOverhead(b *testing.B) {
	cfg := cache.Default32K(2)
	huge := budget.Budget{MaxPoints: 1 << 60, MaxScan: 1 << 60}
	b.Run("unbudgeted", func(b *testing.B) {
		_, a := prepKernel(b, kernels.Hydro(64, 64), cfg, Options{Workers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.FindMisses()
		}
	})
	b.Run("budgeted", func(b *testing.B) {
		_, a := prepKernel(b, kernels.Hydro(64, 64), cfg, Options{Workers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.FindMissesCtx(context.Background(), huge); err != nil {
				b.Fatal(err)
			}
		}
	})
}
