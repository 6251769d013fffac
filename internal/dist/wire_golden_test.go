package dist_test

import (
	"context"
	"encoding/json"
	"testing"

	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
)

// TestWireGolden pins the JSON bytes of every request body a client
// sends (serve analyze/sweep/scaling, a dist sweep) and of a real lease
// response, whose unit carries the content-addressed sweep id and unit
// key. The expected bytes were captured before the request model moved
// into internal/spec; any drift breaks stored payloads, journals and
// cross-version fleets.
func TestWireGolden(t *testing.T) {
	prog := serve.ProgramSpec{Program: "tomcatv", Source: "", Consts: map[string]int64{"M": 3, "n": 7},
		Size: 24, Iters: 1}
	budget := serve.BudgetSpec{TimeoutMs: 500, MaxPoints: 1000, MaxScan: 9, NoFallback: true}
	spec := &dist.SweepSpec{
		ProgramSpec: dist.ProgramSpec{Program: "hydro", Size: 12},
		SolveSpec:   dist.SolveSpec{Exact: true},
		CacheSizes:  []int64{2048, 4096},
		LineSizes:   []int64{32},
		Assocs:      []int{1},
		PadArray:    "ZX",
		Pads:        []int64{0, 4},
	}
	c, err := dist.New(dist.Options{})
	if err != nil {
		t.Fatalf("dist.New: %v", err)
	}
	defer c.Close()
	if _, err := c.AddSweep(context.Background(), spec); err != nil {
		t.Fatalf("AddSweep: %v", err)
	}
	lease := c.Lease("w0")

	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"analyze", &serve.AnalyzeRequest{ProgramSpec: prog, Budget: budget,
			CacheBytes: 8192, LineBytes: 64, Assoc: 2, Exact: true, Confidence: 0.9, Width: 0.1,
			Adaptive: true, Priority: "batch"}, wantAnalyze},
		{"sweep", &serve.SweepRequest{ProgramSpec: prog, Budget: budget,
			CacheSizes: []int64{4096, 8192}, LineSizes: []int64{32, 64}, Assocs: []int{1, 2},
			PadArray: "X", Pads: []int64{0, 8}, Exact: true, Confidence: 0.9, Width: 0.1,
			Adaptive: true, Priority: "interactive"}, wantSweep},
		{"scaling", &serve.ScalingRequest{ProgramSpec: serve.ProgramSpec{Source: "PROGRAM P", Consts: map[string]int64{"M": 2}},
			Budget: budget, CacheBytes: 256, LineBytes: 32, Assoc: 1, Ns: []int64{64, 128},
			From: 64, To: 512, Step: 64, SizeConst: "n", Priority: "batch"}, wantScaling},
		{"dist sweep", &dist.SweepSpec{ProgramSpec: dist.ProgramSpec(prog),
			SolveSpec:  dist.SolveSpec{Exact: true, Confidence: 0.9, Width: 0.1, Adaptive: true, MaxPoints: 5, TimeoutMs: 6},
			CacheSizes: []int64{4096}, LineSizes: []int64{32}, Assocs: []int{4}, PadArray: "X", Pads: []int64{2},
			UnitSize: 3, NoColumnUnits: true, Prune: true, PruneKeep: 2, PruneMargin: 5}, wantDistSweep},
		{"lease", lease, wantLease},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s wire bytes drifted:\ngot  %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

const (
	wantAnalyze   = `{"program":"tomcatv","consts":{"M":3,"n":7},"size":24,"iters":1,"budget":{"timeout_ms":500,"max_points":1000,"max_scan":9,"no_fallback":true},"cache_bytes":8192,"line_bytes":64,"assoc":2,"exact":true,"confidence":0.9,"width":0.1,"adaptive":true,"priority":"batch"}`
	wantSweep     = `{"program":"tomcatv","consts":{"M":3,"n":7},"size":24,"iters":1,"budget":{"timeout_ms":500,"max_points":1000,"max_scan":9,"no_fallback":true},"cache_sizes":[4096,8192],"line_sizes":[32,64],"assocs":[1,2],"pad_array":"X","pads":[0,8],"exact":true,"confidence":0.9,"width":0.1,"adaptive":true,"priority":"interactive"}`
	wantScaling   = `{"source":"PROGRAM P","consts":{"M":2},"budget":{"timeout_ms":500,"max_points":1000,"max_scan":9,"no_fallback":true},"cache_bytes":256,"line_bytes":32,"assoc":1,"ns":[64,128],"from":64,"to":512,"step":64,"size_const":"n","priority":"batch"}`
	wantDistSweep = `{"program":"tomcatv","consts":{"M":3,"n":7},"size":24,"iters":1,"exact":true,"confidence":0.9,"width":0.1,"adaptive":true,"max_points":5,"timeout_ms":6,"cache_sizes":[4096],"line_sizes":[32],"assocs":[4],"pad_array":"X","pads":[2],"unit_size":3,"no_column_units":true,"prune":true,"prune_keep":2,"prune_margin":5}`
	wantLease     = `{"status":"unit","sweep":"26246149b017f8788e26ea98ff4519998548d94e96ec8b4ec16243e883db7cb6","ttl_ms":10000,"unit":{"key":"9bc3219b4e78d5d3283c7ef81d0f5b2c60fa5a9ac7b91f435de40d9dc6485780","seq":0,"program":{"program":"hydro","size":12},"solve":{"exact":true},"candidates":[{"label":"2KB/32B/direct","cache_bytes":2048,"line_bytes":32,"assoc":1}]}}`
)
