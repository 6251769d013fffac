package serve

import (
	"testing"

	"cachemodel/internal/cme"
)

// TestContentKeysGolden pins the content keys admission derives: the
// SolveKey of an analyze and of a padded sweep, and the scaling key of a
// built-in and of an inline-source family. Singleflight dedup, the
// result cache and client-side idempotency all hang off these bytes, so
// they must survive any refactor of how requests are resolved. The
// expected values were captured before the request model moved into
// internal/spec.
func TestContentKeysGolden(t *testing.T) {
	o := (&Options{}).withDefaults()
	solveKey := func(spec *jobSpec, err error) string {
		t.Helper()
		if err != nil {
			t.Fatalf("admission: %v", err)
		}
		prep, err := cme.Prepare(spec.np, spec.opt)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		return prep.SolveKey(spec.cands, spec.plan)
	}
	scalingKey := func(spec *jobSpec, err error) string {
		t.Helper()
		if err != nil {
			t.Fatalf("admission: %v", err)
		}
		return spec.scaling.key
	}
	const src = `
      PROGRAM P
      PARAMETER (N = 8)
      REAL A(N, N), B(N, N)
      DO I = 2, N
        DO J = 1, N
          A(J, I) = B(J, I - 1) + A(J, I)
        ENDDO
      ENDDO
      END
`
	for _, tc := range []struct {
		name, got, want string
	}{
		{"analyze", solveKey(o.specFromAnalyze(&AnalyzeRequest{
			ProgramSpec: ProgramSpec{Program: "Tomcatv", Size: 12, Iters: 1}, CacheBytes: 4096})),
			wantAnalyzeKey},
		{"sweep", solveKey(o.specFromSweep(&SweepRequest{
			ProgramSpec: ProgramSpec{Program: "hydro", Size: 12},
			CacheSizes:  []int64{2048, 4096}, Assocs: []int{1, 2}, PadArray: "ZX", Pads: []int64{0, 4},
			Confidence: 0.9})),
			wantSweepKey},
		{"scaling built-in", scalingKey(o.specFromScaling(&ScalingRequest{
			ProgramSpec: ProgramSpec{Program: "hydro"}, From: 64, To: 256, Step: 64})),
			wantScalingKey},
		{"scaling source", scalingKey(o.specFromScaling(&ScalingRequest{
			ProgramSpec: ProgramSpec{Source: src, Consts: map[string]int64{"m": 2}},
			Ns:          []int64{16, 32}, SizeConst: "n"})),
			wantScalingSourceKey},
	} {
		if tc.got != tc.want {
			t.Errorf("%s key drifted: got %s want %s", tc.name, tc.got, tc.want)
		}
	}
}

const (
	wantAnalyzeKey       = "86b79b7c28a992a034d8350ca5fc113966fef1b0d84b964aeba087cc721f9f1a"
	wantSweepKey         = "ae040d698088df1e444d52ddfc5b6d12c9c06065466ff9805af8896ce6f25a72"
	wantScalingKey       = "sc:37446d7ebf3c8994467479b4eb350517"
	wantScalingSourceKey = "sc:9e840f9724e06b7686b7247195136f76"
)
