package cme

import "testing"

// TestFitRefRefusals drives the counter fit both closed-form tiers share
// through every refusal: fitRef refuses anchors that cannot define a
// trustworthy fit, and fill refuses evaluations that break a count
// identity. Either refusal sends the claimed size back to enumeration.
func TestFitRefRefusals(t *testing.T) {
	// ref is an exact census at volume 12 unless a case edits it.
	ref := func(hits, cold, repl int64) *RefReport {
		return &RefReport{Volume: 12, Analyzed: 12, Hits: hits, Cold: cold, Repl: repl,
			Tier: TierExact, Complete: true}
	}
	flat := func() []*RefReport { return []*RefReport{ref(6, 2, 4), ref(6, 2, 4), ref(6, 2, 4)} }
	edit := func(reps []*RefReport, i int, f func(*RefReport)) []*RefReport {
		f(reps[i])
		return reps
	}
	for _, tc := range []struct {
		name    string
		deg     int
		xs      []int64
		reps    []*RefReport
		x, vol  int64 // the evaluation point and its volume
		wantFit bool
		want    [4]int64 // analyzed, hits, cold, repl when fill succeeds
		wantOK  bool
	}{
		{name: "constant", xs: []int64{64, 128, 256}, reps: flat(), x: 512, vol: 12,
			wantFit: true, wantOK: true, want: [4]int64{12, 6, 2, 4}},
		{name: "linear", deg: 1, xs: []int64{1, 2, 3, 4},
			reps: []*RefReport{ref(2, 4, 6), ref(3, 4, 5), ref(4, 4, 4), ref(5, 4, 3)}, x: 6, vol: 12,
			wantFit: true, wantOK: true, want: [4]int64{12, 7, 4, 1}},
		{name: "equal abscissae that agree collapse", xs: []int64{64, 64, 128, 256},
			reps: append(flat(), ref(6, 2, 4)), x: 512, vol: 12,
			wantFit: true, wantOK: true, want: [4]int64{12, 6, 2, 4}},
		{name: "too few anchors", xs: []int64{64, 128}, reps: flat()[:2]},
		{name: "holdout disagrees", xs: []int64{64, 128, 256},
			reps: edit(flat(), 2, func(r *RefReport) { r.Hits, r.Repl = 5, 5 })},
		{name: "equal abscissae disagree", xs: []int64{64, 64, 128, 256},
			reps: append(flat(), ref(5, 2, 5))},
		{name: "incomplete anchor", xs: []int64{64, 128, 256},
			reps: edit(flat(), 1, func(r *RefReport) { r.Complete = false })},
		{name: "sampled anchor", xs: []int64{64, 128, 256},
			reps: edit(flat(), 1, func(r *RefReport) { r.Sampled = true })},
		{name: "degraded anchor", xs: []int64{64, 128, 256},
			reps: edit(flat(), 0, func(r *RefReport) { r.Tier = TierProbabilistic })},
		{name: "partial census", xs: []int64{64, 128, 256},
			reps: edit(flat(), 2, func(r *RefReport) { r.Analyzed = 11 })},
		{name: "non-integral value", deg: 1, xs: []int64{0, 2, 4, 6},
			reps: []*RefReport{ref(0, 12, 0), ref(1, 11, 0), ref(2, 10, 0), ref(3, 9, 0)}, x: 1, vol: 12,
			wantFit: true},
		{name: "negative count", deg: 1, xs: []int64{1, 2, 3, 4},
			reps: []*RefReport{ref(8, 3, 1), ref(9, 2, 1), ref(10, 1, 1), ref(11, 0, 1)}, x: 5, vol: 12,
			wantFit: true},
		{name: "counts miss the analyzed total", xs: []int64{64, 128, 256},
			reps: []*RefReport{ref(6, 2, 3), ref(6, 2, 3), ref(6, 2, 3)}, x: 512, vol: 12,
			wantFit: true},
		{name: "analyzed misses the volume", xs: []int64{64, 128, 256}, reps: flat(), x: 512, vol: 13,
			wantFit: true},
	} {
		f, err := fitRef(tc.deg, tc.xs, tc.reps)
		if (err == nil) != tc.wantFit {
			t.Errorf("%s: fitRef err = %v, want fit %v", tc.name, err, tc.wantFit)
			continue
		}
		if f == nil {
			continue
		}
		rr := &RefReport{Volume: tc.vol}
		ok := f.fill(rr, tc.x)
		if ok != tc.wantOK {
			t.Errorf("%s: fill at %d = %v, want %v (%+v)", tc.name, tc.x, ok, tc.wantOK, *rr)
			continue
		}
		got := [4]int64{rr.Analyzed, rr.Hits, rr.Cold, rr.Repl}
		switch {
		case ok && (got != tc.want || !rr.Complete || !rr.ClosedForm || rr.Tier != TierExact):
			t.Errorf("%s: filled %+v, want counts %v as a complete exact closed form", tc.name, *rr, tc.want)
		case !ok && (got != [4]int64{} || rr.Complete):
			t.Errorf("%s: a refused fill touched the report: %+v", tc.name, *rr)
		}
	}
}
