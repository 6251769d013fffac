package cme

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/inline"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
	"cachemodel/internal/layout"
	"cachemodel/internal/normalize"
)

var update = flag.Bool("update", false, "rewrite testdata/closedform.golden from the current solvers")

const closedFormGolden = "testdata/closedform.golden"

// tomcatvAt runs Tomcatv (one iteration) through inline, normalize and
// layout at size n.
func tomcatvAt(n int64) (*ir.NProgram, error) {
	flat, _, err := inline.Flatten(kernels.Tomcatv(n, 1), inline.Options{})
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

func writeRefLines(b *strings.Builder, rep *Report) {
	for _, rr := range rep.Refs {
		fmt.Fprintf(b, "  %s vol=%d an=%d hits=%d cold=%d repl=%d tier=%v complete=%v closed=%v\n",
			rr.Ref.ID, rr.Volume, rr.Analyzed, rr.Hits, rr.Cold, rr.Repl, rr.Tier, rr.Complete, rr.ClosedForm)
	}
}

// closedFormDump renders both closed-form tiers on Tomcatv: the scaling
// ladder N 192..512 step 64 under 256 B/32 B/direct (every report plus the
// fitted miss polynomials), and the 64-candidate geom column at N=24
// (40 KB..166 KB step 2 KB, 32 B lines, direct).
func closedFormDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	ctx := context.Background()

	s, err := PrepareScaling(tomcatvAt, cache.Config{SizeBytes: 256, LineBytes: 32, Assoc: 1}, Options{}, ScalingOptions{})
	if err != nil {
		t.Fatalf("PrepareScaling: %v", err)
	}
	var ns []int64
	for n := int64(192); n <= 512; n += 64 {
		ns = append(ns, n)
	}
	reps, err := s.SolveLadder(ctx, ns)
	if err != nil {
		t.Fatalf("SolveLadder: %v", err)
	}
	for i, rep := range reps {
		sc := rep.Scaling
		fmt.Fprintf(&b, "ladder n=%d closed=%v refs=%d/%d cold=%d period=%d degree=%d residue=%d fitsolves=%d why=%q\n",
			ns[i], sc.ClosedForm, sc.ClosedFormRefs, sc.TotalRefs, sc.PureColdRefs,
			sc.Period, sc.Degree, sc.Residue, sc.FitSolves, sc.Why)
		writeRefLines(&b, rep)
	}
	for _, mp := range s.MissPolys() {
		fmt.Fprintf(&b, "poly %s purecold=%v volume=%s\n", mp.RefID, mp.PureCold, mp.Volume)
		var rs []int64
		for r := range mp.Residues {
			rs = append(rs, r)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		for _, r := range rs {
			c := mp.Residues[r]
			fmt.Fprintf(&b, "  residue %d base=%d analyzed=%s hits=%s cold=%s repl=%s\n",
				r, c.Base, c.Analyzed, c.Hits, c.Cold, c.Repl)
		}
	}

	np, err := tomcatvAt(24)
	if err != nil {
		t.Fatalf("tomcatv(24): %v", err)
	}
	p, err := Prepare(np, Options{})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	cands := geomColumnCands(40*1024, 2*1024, 64, 32, 1)
	col, err := p.SolveBatch(ctx, cands, BatchOptions{})
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for i, rep := range col {
		fmt.Fprintf(&b, "column %s", cands[i].Label)
		if g := rep.Geom; g != nil {
			fmt.Fprintf(&b, " sets=%d span=%d stable=%v anchor=%v closed=%d purecold=%d fallthrough=%d total=%d why=%q",
				g.NumSets, g.SpanLines, g.Stable, g.Anchor, g.ClosedRefs, g.PureColdRefs,
				g.FallthroughRefs, g.TotalRefs, g.Why)
		}
		b.WriteString("\n")
		writeRefLines(&b, rep)
	}
	return b.String()
}

// TestClosedFormGolden pins both closed-form tiers — the scaling ladder and
// the geom column — to a dump captured before their fit engines were
// merged. Run with -update to rewrite it after an intended change.
func TestClosedFormGolden(t *testing.T) {
	got := closedFormDump(t)
	if *update {
		if err := os.WriteFile(closedFormGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(closedFormGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("closed-form dump diverges from %s at line %d:\n  want %s\n  got  %s", closedFormGolden, i+1, w, g)
		}
	}
}
