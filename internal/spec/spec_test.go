package spec

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cachemodel/internal/fparse"
	"cachemodel/internal/ir"
	"cachemodel/internal/kernels"
)

const jacobiSrc = `
      PROGRAM JAC
      REAL*8 A, B
      DIMENSION A(N,N), B(N,N)
      DO I = 2, N - 1
        DO J = 2, N - 1
          A(J,I) = B(J-1,I) + B(J+1,I) + B(J,I-M)
        ENDDO
      ENDDO
      END
`

// TestRegistryMatchesKernels: every registry name, in any case, builds
// the same program as the direct kernels constructor.
func TestRegistryMatchesKernels(t *testing.T) {
	const size, iters = 16, 1
	direct := map[string]*ir.Program{
		"tomcatv": kernels.Tomcatv(size, iters),
		"swim":    kernels.Swim(size, iters),
		"applu":   kernels.Applu(size, iters),
		"vcycle":  kernels.VCycle(size, iters),
	}
	for _, k := range kernels.Suite() {
		direct[k.Name] = k.Build(size)
	}
	if got := len(Builtins()); got != len(direct) {
		t.Fatalf("registry has %d entries, want %d", got, len(direct))
	}
	for _, b := range Builtins() {
		want, ok := direct[b.Name]
		if !ok {
			t.Fatalf("registry entry %q has no direct constructor", b.Name)
		}
		mixed := strings.ToUpper(b.Name[:1]) + b.Name[1:]
		for _, name := range []string{b.Name, strings.ToUpper(b.Name), mixed} {
			got, err := Program{Program: name, Size: size, Iters: iters}.Build(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: registry build differs from the direct constructor", name)
			}
		}
	}
}

// TestProgramSourceConsts: inline source binds its constants
// case-insensitively, and Prepare names the normalised program after it.
func TestProgramSourceConsts(t *testing.T) {
	ps := Program{Source: jacobiSrc, Consts: map[string]int64{"n": 12, "M": 1}}
	got, err := ps.Build(0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want, err := fparse.Parse(jacobiSrc, map[string]int64{"N": 12, "M": 1})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("source build differs from a direct parse")
	}
	np, st, err := ps.Prepare(0)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if np.Name != want.Name || st == nil || len(np.Refs) == 0 {
		t.Errorf("Prepare: name %q (want %q), stats %v, %d refs", np.Name, want.Name, st, len(np.Refs))
	}
}

func TestProgramErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ps      Program
		maxSize int64
		want    string
	}{
		{"both", Program{Program: "hydro", Source: jacobiSrc}, 0, "not both"},
		{"neither", Program{}, 0, "missing program"},
		{"unknown", Program{Program: "nope"}, 0, "unknown program"},
		{"negative size", Program{Program: "hydro", Size: -1}, 0, "must be positive"},
		{"negative iters", Program{Program: "tomcatv", Iters: -2}, 0, "must be positive"},
		{"source size", Program{Source: jacobiSrc, Size: -4}, 0, "must be positive"},
		{"over the limit", Program{Program: "hydro", Size: 65}, 64, "exceeds the limit 64"},
		{"default over the limit", Program{Program: "hydro"}, 16, "size 32 exceeds"},
	} {
		_, err := tc.ps.Build(tc.maxSize)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
		if _, _, perr := tc.ps.Prepare(tc.maxSize); perr == nil || perr.Error() != err.Error() {
			t.Errorf("%s: Prepare err = %v, want the Build error", tc.name, perr)
		}
	}
	if _, err := (Program{Program: "hydro", Size: 64}).Build(64); err != nil {
		t.Errorf("size at the limit rejected: %v", err)
	}
}

// TestFamily: a family instantiates exactly what Prepare would at each
// size, rebinds the size constant of a source (explicit constants win),
// and validates the spec before any size is built.
func TestFamily(t *testing.T) {
	build, err := Program{Program: "HYDRO", Size: 999}.Family("", 64)
	if err != nil {
		t.Fatalf("Family: %v", err)
	}
	got, err := build(24)
	if err != nil {
		t.Fatalf("build(24): %v", err)
	}
	want, _, err := Program{Program: "hydro", Size: 24}.Prepare(0)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("built-in family differs from Prepare at the same size")
	}
	if _, err := build(65); err == nil {
		t.Error("family built past the size limit")
	}
	if _, err := build(0); err == nil {
		t.Error("family built a zero size")
	}

	src, err := Program{Source: jacobiSrc, Consts: map[string]int64{"m": 1}}.Family("n", 0)
	if err != nil {
		t.Fatalf("source Family: %v", err)
	}
	got, err = src(10)
	if err != nil {
		t.Fatalf("source build(10): %v", err)
	}
	want, _, err = Program{Source: jacobiSrc, Consts: map[string]int64{"N": 10, "M": 1}}.Prepare(0)
	if err != nil {
		t.Fatalf("source Prepare: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("source family differs from Prepare with the size constant bound")
	}
	pinned, err := Program{Source: jacobiSrc, Consts: map[string]int64{"N": 8, "M": 1}}.Family("N", 0)
	if err != nil {
		t.Fatalf("pinned Family: %v", err)
	}
	if np, err := pinned(10); err != nil || !reflect.DeepEqual(np, mustPrepare(t, Program{Source: jacobiSrc,
		Consts: map[string]int64{"N": 8, "M": 1}})) {
		t.Errorf("an explicit constant must win over the size constant (err %v)", err)
	}

	for name, ps := range map[string]Program{
		"unknown": {Program: "nope"},
		"both":    {Program: "hydro", Source: jacobiSrc},
		"neither": {},
		"iters":   {Program: "tomcatv", Iters: -1},
	} {
		if _, err := ps.Family("N", 0); err == nil {
			t.Errorf("%s: Family accepted an invalid spec", name)
		}
	}
}

func mustPrepare(t *testing.T, ps Program) *ir.NProgram {
	t.Helper()
	np, _, err := ps.Prepare(0)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return np
}

// TestGridCells pins the grid's order, labels and defaults — those of
// `cachette sweep` and POST /v1/sweep — pads included.
func TestGridCells(t *testing.T) {
	labels := func(cells []Cell) []string {
		var out []string
		for _, c := range cells {
			out = append(out, c.Label)
		}
		return out
	}
	def, err := Grid{}.Cells(0)
	if err != nil {
		t.Fatalf("default grid: %v", err)
	}
	want := []string{
		"4KB/32B/direct", "4KB/32B/2-way", "4KB/32B/4-way",
		"8KB/32B/direct", "8KB/32B/2-way", "8KB/32B/4-way",
		"16KB/32B/direct", "16KB/32B/2-way", "16KB/32B/4-way",
		"32KB/32B/direct", "32KB/32B/2-way", "32KB/32B/4-way",
		"64KB/32B/direct", "64KB/32B/2-way", "64KB/32B/4-way",
	}
	if got := labels(def); !reflect.DeepEqual(got, want) {
		t.Errorf("default grid:\ngot  %v\nwant %v", got, want)
	}

	padded, err := Grid{CacheSizes: []int64{2048, 4096}, LineSizes: []int64{16, 32}, Assocs: []int{2},
		PadArray: "ZX", Pads: []int64{0, 4}}.Cells(8)
	if err != nil {
		t.Fatalf("padded grid: %v", err)
	}
	want = []string{
		"2KB/16B/2-way", "2KB/16B/2-way+pad4", "2KB/32B/2-way", "2KB/32B/2-way+pad4",
		"4KB/16B/2-way", "4KB/16B/2-way+pad4", "4KB/32B/2-way", "4KB/32B/2-way+pad4",
	}
	if got := labels(padded); !reflect.DeepEqual(got, want) {
		t.Errorf("padded grid:\ngot  %v\nwant %v", got, want)
	}
	base, pad := padded[0].Candidate(), padded[1].Candidate()
	if base.Layout != nil || base.Config != padded[0].Config() {
		t.Errorf("baseline cell candidate %+v", base)
	}
	if pad.Layout == nil || pad.Layout.PadOf["ZX"] != 4 || pad.Label != "2KB/16B/2-way+pad4" {
		t.Errorf("padded cell candidate %+v", pad)
	}
	if got := Candidates(padded); len(got) != len(padded) || got[3].Label != padded[3].Label {
		t.Errorf("Candidates: %+v", got)
	}

	if _, err := (Grid{Pads: []int64{4}}).Cells(0); err == nil || !strings.Contains(err.Error(), "pads given without pad_array") {
		t.Errorf("pads without pad_array: err = %v", err)
	}
	if _, err := (Grid{}).Cells(14); err == nil || !strings.Contains(err.Error(), "candidate grid of 15 exceeds the limit 14") {
		t.Errorf("over the cell limit: err = %v", err)
	}
}

func TestPlan(t *testing.T) {
	if p, err := Plan(true, 0.5, 0.5); p != nil || err != nil {
		t.Errorf("exact: plan %v err %v, want nil nil", p, err)
	}
	p, err := Plan(false, 0, 0)
	if err != nil || p.C != 0.95 || p.W != 0.05 {
		t.Errorf("defaults: plan %+v err %v", p, err)
	}
	if p, err = Plan(false, 0.9, 0.1); err != nil || p.C != 0.9 || p.W != 0.1 {
		t.Errorf("explicit: plan %+v err %v", p, err)
	}
	if _, err := Plan(false, 1.5, 0.05); err == nil {
		t.Error("confidence 1.5 accepted")
	}
}

func TestLadder(t *testing.T) {
	for _, tc := range []struct {
		name           string
		from, to, step int64
		max            int
		want           []int64
		err            string
	}{
		{"plain", 64, 256, 64, 16, []int64{64, 128, 192, 256}, ""},
		{"ragged end", 64, 250, 64, 16, []int64{64, 128, 192}, ""},
		{"one size", 7, 7, 1, 1, []int64{7}, ""},
		{"step past to", 1, 10, 100, 1, []int64{1}, ""},
		{"at the cap", 1, 4, 1, 4, []int64{1, 2, 3, 4}, ""},
		{"over the cap", 1, 5, 1, 4, nil, "ladder of 5 sizes exceeds the limit 4"},
		{"huge range", 1, math.MaxInt64 - 1, 1, 65536, nil, "exceeds the limit"},
		{"MaxInt64 end", math.MaxInt64 - 100, math.MaxInt64, 64, 65536, nil, "bad ladder"},
		{"MaxInt64 range", 1, math.MaxInt64, 1, 65536, nil, "bad ladder"},
		{"zero from", 0, 64, 32, 16, nil, "must be positive"},
		{"negative from", -64, 512, 64, 16, nil, "must be positive"},
		{"zero step", 64, 512, 0, 16, nil, "bad ladder"},
		{"negative step", 64, 512, -64, 16, nil, "bad ladder"},
		{"reversed", 512, 128, 64, 16, nil, "bad ladder"},
	} {
		got, err := Ladder(tc.from, tc.to, tc.step, tc.max)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v err %v, want %v", tc.name, got, err, tc.want)
		}
	}
}
