package advisor

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/cme"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/sampling"
	"cachemodel/internal/spec"
)

func plan() sampling.Plan { return sampling.Plan{C: 0.95, W: 0.05} }

// conflictProgram builds the classic pathology: A and B exactly one cache
// size apart, streamed together through a direct-mapped cache.
func conflictProgram(n int64) *ir.Program {
	b := ir.NewSub("CONFLICT")
	A := b.Real8("A", n)
	B := b.Real8("B", n)
	i := ir.Var("I")
	b.Do("I", ir.Con(1), ir.Con(n)).
		Assign("S1", ir.R(A, i), ir.R(B, i)).
		End()
	p := ir.NewProgram("CONFLICT")
	p.Add(b.Build())
	return p
}

// TestDiagnoseCrossInterference: the diagnosis must name B as the top
// interferer evicting A's lines (and vice versa) in the conflict program.
func TestDiagnoseCrossInterference(t *testing.T) {
	np, _, err := spec.Pipeline(conflictProgram(4096), spec.Front{Layout: layoutOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Default32K(1)
	d, err := Diagnose(np, cfg, cme.Options{}, plan())
	if err != nil {
		t.Fatal(err)
	}
	if d.MissRatio() < 90 {
		t.Fatalf("diagnosed ratio %.2f%%, want ~100 (full conflict)", d.MissRatio())
	}
	if len(d.Matrix) == 0 {
		t.Fatal("empty interference matrix")
	}
	top := d.Matrix[0]
	if top.Victim.Name == top.Interferer.Name {
		t.Errorf("top interference is self (%s<-%s), want cross", top.Victim.Name, top.Interferer.Name)
	}
	if d.SelfInterference > 0.2 {
		t.Errorf("self-interference fraction %.2f, want ~0 for a pure cross conflict", d.SelfInterference)
	}
}

// TestDiagnoseSelfInterference: a single array far larger than the cache,
// re-swept repeatedly, interferes only with itself.
func TestDiagnoseSelfInterference(t *testing.T) {
	b := ir.NewSub("SELF")
	A := b.Real8("A", 512)
	i := ir.Var("I")
	b.Do("T", ir.Con(1), ir.Con(6)).
		Do("I", ir.Con(1), ir.Con(512)).
		Assign("S1", nil, ir.R(A, i)).
		End().End()
	p := ir.NewProgram("SELF")
	p.Add(b.Build())
	np, _, err := spec.Pipeline(p, spec.Front{Layout: layoutOptions()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	d, err := Diagnose(np, cfg, cme.Options{}, plan())
	if err != nil {
		t.Fatal(err)
	}
	if d.Repl == 0 {
		t.Fatal("expected replacement misses (4 KB array through 1 KB cache)")
	}
	if d.SelfInterference < 0.95 {
		t.Errorf("self-interference %.2f, want ~1", d.SelfInterference)
	}
}

// TestSearchPaddingFindsFix: the padding search must rank a
// conflict-removing pad strictly above pad 0.
func TestSearchPaddingFindsFix(t *testing.T) {
	cfg := cache.Default32K(1)
	choices, err := SearchPadding(func() *ir.Program { return conflictProgram(4096) },
		"B", []int64{0, 32, 64}, cfg, cme.Options{}, plan())
	if err != nil {
		t.Fatal(err)
	}
	if choices[0].Label == "pad=0" {
		t.Errorf("pad=0 ranked best: %+v", choices)
	}
	if choices[len(choices)-1].Label != "pad=0" {
		t.Errorf("pad=0 not ranked worst: %+v", choices)
	}
	if choices[0].MissRatio > 35 || choices[len(choices)-1].MissRatio < 90 {
		t.Errorf("implausible ratios: %+v", choices)
	}
}

// TestSearchParameterRanksTiles: the tile search must prefer a cache-
// fitting MMT block over the unblocked extreme, and the ranking must
// agree with what Table 7's simulator would say (small blocks win for an
// 8 KB cache at N=48).
func TestSearchParameterRanksTiles(t *testing.T) {
	cfg := cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 2}
	choices, err := SearchParameter(func(b int64) *ir.Program { return kernels.MMT(48, b, b) },
		[]int64{8, 48}, cfg, cme.Options{}, plan())
	if err != nil {
		t.Fatal(err)
	}
	if choices[0].Label != "8" {
		t.Errorf("expected block 8 to win: %+v", choices)
	}
}

// TestSearchParameterClosedFormPrunes: a size-parameterised affine family
// must be priced by the scaling tier — dominated candidates keep their
// closed-form ratio and are never instantiated at their own size, and the
// closed-form ratios are exactly the per-size analytical ones.
func TestSearchParameterClosedFormPrunes(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 64, Assoc: 1}
	var mu sync.Mutex
	builtAt := map[int64]int{}
	build := func(n int64) *ir.Program {
		mu.Lock()
		builtAt[n]++
		mu.Unlock()
		return conflictProgram(n)
	}
	// All above the fit-sample window, so a dominated candidate's size is
	// never instantiated at all.
	params := []int64{320, 384, 448, 512}
	choices, err := SearchParameter(build, params, cfg, cme.Options{}, plan())
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != len(params) {
		t.Fatalf("%d choices for %d params", len(choices), len(params))
	}
	closed := 0
	for _, c := range choices {
		v, err := strconv.ParseInt(c.Label, 10, 64)
		if err != nil {
			t.Fatalf("label %q", c.Label)
		}
		if !c.ClosedForm {
			continue
		}
		closed++
		if builtAt[v] != 0 {
			t.Errorf("dominated candidate %d was instantiated %d times", v, builtAt[v])
		}
		np, _, err := spec.Pipeline(conflictProgram(v), spec.Front{Layout: layoutOptions()})
		if err != nil {
			t.Fatal(err)
		}
		a, err := cme.New(np, cfg, cme.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := a.FindMisses().MissRatio(); math.Abs(c.MissRatio-want) > 1e-9 {
			t.Errorf("candidate %d: closed-form ratio %.6f, exact %.6f", v, c.MissRatio, want)
		}
	}
	if closed != len(params)-1 {
		t.Errorf("%d of %d candidates pruned, want all but the confirmed best", closed, len(params))
	}
}

// TestSearchParameterTileFamilyUnchanged: a family the scaling tier cannot
// lift (tile size inside min() bounds changes trip counts non-affinely)
// must silently take the per-candidate path.
func TestSearchParameterTileFamilyUnchanged(t *testing.T) {
	cfg := cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 2}
	choices, err := SearchParameter(func(b int64) *ir.Program { return kernels.MMT(48, b, b) },
		[]int64{8, 48}, cfg, cme.Options{}, plan())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range choices {
		if c.ClosedForm {
			t.Errorf("tile candidate %s claims a closed form", c.Label)
		}
	}
}

func layoutOptions() layout.Options { return layout.Options{} }

// TestFrontier pins the pruning contract the dist coordinator builds on:
// the best max(1, keep) choices always survive, plus anything within
// marginPct (relative) of the best; the rest is dominated.
func TestFrontier(t *testing.T) {
	sorted := []Choice{
		{Label: "a", MissRatio: 10.0},
		{Label: "b", MissRatio: 10.5}, // within 10% of a
		{Label: "c", MissRatio: 12.0}, // outside 10%, inside keep=3
		{Label: "d", MissRatio: 40.0},
		{Label: "e", MissRatio: 80.0},
	}
	cases := []struct {
		name   string
		keep   int
		margin float64
		want   []string
	}{
		{"keep_floor_is_one", 0, 0, []string{"a"}},
		{"margin_extends_past_keep", 1, 10, []string{"a", "b"}},
		{"keep_overrides_margin", 3, 0, []string{"a", "b", "c"}},
		{"margin_covers_everything", 1, 1000, []string{"a", "b", "c", "d", "e"}},
		{"keep_beyond_len", 10, 0, []string{"a", "b", "c", "d", "e"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Frontier(sorted, tc.keep, tc.margin)
			if len(got) != len(tc.want) {
				t.Fatalf("kept %d choices, want %d (%v)", len(got), len(tc.want), got)
			}
			for i, w := range tc.want {
				if got[i].Label != w {
					t.Errorf("survivor[%d] = %s, want %s", i, got[i].Label, w)
				}
			}
		})
	}
	if got := Frontier(nil, 3, 10); got != nil {
		t.Errorf("Frontier(nil) = %v, want nil", got)
	}
	// The survivors are a prefix: once a choice falls off the frontier,
	// nothing behind it (sorted worse) can re-enter.
	gapped := []Choice{{Label: "a", MissRatio: 10}, {Label: "b", MissRatio: 50}, {Label: "c", MissRatio: 10.1}}
	if got := Frontier(gapped, 1, 5); len(got) != 1 || got[0].Label != "a" {
		t.Errorf("frontier is not a prefix: %v", got)
	}
}
