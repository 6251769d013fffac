package reuse

import (
	"fmt"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/normalize"
)

// figure1 is the running example of §3 (Figure 1), N-parameterised.
func figure1(n int64) *ir.NProgram {
	b := ir.NewSub("foo")
	A := b.Real8("A", n)
	B := b.Real8("B", n, n)
	b.Do("I1", ir.Con(2), ir.Con(n)).
		Assign("S1", ir.R(A, ir.Var("I1").PlusConst(-1))).
		Do("I2", ir.Var("I1"), ir.Con(n)).
		Assign("S2", ir.R(B, ir.Var("I2").PlusConst(-1), ir.Var("I1")), ir.R(A, ir.Var("I2").PlusConst(-1))).
		End().
		Do("I2", ir.Con(1), ir.Con(n)).
		Assign("S3", nil, ir.R(B, ir.Var("I2"), ir.Var("I1"))).
		End().
		Assign("S4", nil, ir.R(A, ir.Var("I1"))).
		End().
		Do("I1", ir.Con(1), ir.Con(n-1)).
		Assign("S5", ir.R(A, ir.Var("I1").PlusConst(1))).
		End()
	np, err := normalize.Normalize(b.Build())
	if err != nil {
		panic(err)
	}
	return np
}

func findRef(np *ir.NProgram, stmt, array string, write bool) *ir.NRef {
	for _, r := range np.Refs {
		if r.Stmt.Name == stmt && r.Array.Name == array && r.Write == write {
			return r
		}
	}
	panic(fmt.Sprintf("no ref %s/%s write=%v", stmt, array, write))
}

// cfg32 is the paper's default: 32B lines over REAL*8 gives L_s = 4
// elements.
var cfg32 = cache.Default32K(1)

// TestUniformSets reproduces §3.4: the three uniformly generated sets of
// Figure 2: {A(I1−1), A(I1), A(I1+1)}, {A(I2−1)} and {B(I2−1,I1), B(I2,I1)}.
func TestUniformSets(t *testing.T) {
	np := figure1(10)
	sets := UniformSets(np)
	var sizes []string
	for _, s := range sets {
		sizes = append(sizes, fmt.Sprintf("%s:%d", s.Array.Name, len(s.Refs)))
	}
	want := []string{"A:3", "A:1", "B:2"}
	if len(sets) != 3 {
		t.Fatalf("uniform sets = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("set %d = %s, want %s", i, sizes[i], want[i])
		}
	}
}

func hasVector(vecs []*Vector, inter ...int64) bool {
	for _, v := range vecs {
		got := v.Interleaved()
		if len(got) != len(inter) {
			continue
		}
		match := true
		for k := range got {
			if got[k] != inter[k] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestSection35TemporalVector reproduces the worked example of §3.5: the
// unique temporal reuse vector from B(I2−1,I1) in S2 to B(I2,I1) in S3 is
// (0, 0, 1, −1).
func TestSection35TemporalVector(t *testing.T) {
	np := figure1(10)
	vecs := Generate(np, cfg32, Options{})
	rc := findRef(np, "S3", "B", false)
	var temporal []*Vector
	for _, v := range vecs[rc] {
		if !v.Spatial && !v.Self() {
			temporal = append(temporal, v)
		}
	}
	if !hasVector(temporal, 0, 0, 1, -1) {
		t.Errorf("missing temporal vector (0,0,1,-1); got %v", temporal)
	}
}

// TestSection35SpatialVectors reproduces the spatial vectors of §3.5 for
// L_s = 4: (0,0,1,−2) and (0,0,1,−3) within a column, and the
// cross-column vector (0,1,0,1−N) of Figure 3.
func TestSection35SpatialVectors(t *testing.T) {
	const n = 10
	np := figure1(n)
	vecs := Generate(np, cfg32, Options{})
	rc := findRef(np, "S3", "B", false)
	var spatial []*Vector
	for _, v := range vecs[rc] {
		if v.Spatial {
			spatial = append(spatial, v)
		}
	}
	// Within-column group spatial vectors from B(I2−1,I1) in S2.
	for _, want := range [][]int64{{0, 0, 1, -2}, {0, 0, 1, -3}} {
		if !hasVector(spatial, want...) {
			t.Errorf("missing spatial vector %v; got %v", want, spatial)
		}
	}
	// Cross-column self-spatial vector (0,1,0,1−N) of Fig. 3: B(I2,I1)
	// reuses its own line across the column boundary one outer iteration
	// later.
	if !hasVector(spatial, 0, 1, 0, 1-int64(n)) {
		t.Errorf("missing cross-column vector (0,1,0,%d); got %v", 1-n, spatial)
	}
}

// TestSelfSpatialInnerLoop: A(I2−1) in S2 must have self spatial reuse
// along the inner loop: (0,0,0,1).
func TestSelfSpatialInnerLoop(t *testing.T) {
	np := figure1(10)
	vecs := Generate(np, cfg32, Options{})
	rc := findRef(np, "S2", "A", false)
	var selfSpatial []*Vector
	for _, v := range vecs[rc] {
		if v.Spatial && v.Self() {
			selfSpatial = append(selfSpatial, v)
		}
	}
	if !hasVector(selfSpatial, 0, 0, 0, 1) {
		t.Errorf("missing self-spatial (0,0,0,1); got %v", selfSpatial)
	}
}

// TestGroupTemporalAcrossNests: A(I1) read by S4 at outer iteration I1 is
// written by S1 at iteration I1+1 as A(I1−1), so S1 (the consumer) reuses
// S4's access one outer iteration later, across nests (1,2) → (1,1):
// interleaved vector (0, 1, −1, x), which is ⪰ 0.
func TestGroupTemporalAcrossNests(t *testing.T) {
	np := figure1(10)
	vecs := Generate(np, cfg32, Options{})
	rc := findRef(np, "S1", "A", true)
	found := false
	for _, v := range vecs[rc] {
		if !v.Spatial && v.Producer.Stmt.Name == "S4" && v.IdxDiff[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing group temporal A(I1)->A(I1-1) across outer iterations: %v", vecs[rc])
	}
}

// TestBackwardIndexForwardNest: S5's A(I1+1) in the second top-level nest
// reuses S4's A(I1) from the first nest with a negative index component —
// legal because the leading label difference is positive.
func TestBackwardIndexForwardNest(t *testing.T) {
	np := figure1(10)
	vecs := Generate(np, cfg32, Options{})
	rc := findRef(np, "S5", "A", true)
	found := false
	for _, v := range vecs[rc] {
		if !v.Spatial && v.Producer.Stmt.Name == "S4" && v.LabelDiff[0] == 1 && v.IdxDiff[0] == -1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing cross-nest vector with negative index part: %v", vecs[rc])
	}
}

// TestVectorsNonNegative: every generated vector must satisfy r ⪰ 0 (or be
// zero with textual producer-before-consumer order).
func TestVectorsNonNegative(t *testing.T) {
	np := figure1(8)
	for rc, vs := range Generate(np, cfg32, Options{}) {
		for _, v := range vs {
			if !v.nonNegative() {
				t.Errorf("ref %s: negative vector %v", rc.ID, v)
			}
		}
	}
}

// TestVectorsSorted: vectors must be in ascending interleaved order.
func TestVectorsSorted(t *testing.T) {
	np := figure1(8)
	for rc, vs := range Generate(np, cfg32, Options{}) {
		for i := 1; i < len(vs); i++ {
			if Compare(vs[i-1], vs[i]) > 0 {
				t.Errorf("ref %s: vectors out of order at %d: %v > %v", rc.ID, i, vs[i-1], vs[i])
			}
		}
	}
}

// TestNoGroupOption: the ablation switch must drop all group vectors.
func TestNoGroupOption(t *testing.T) {
	np := figure1(8)
	for rc, vs := range Generate(np, cfg32, Options{NoGroup: true}) {
		for _, v := range vs {
			if !v.Self() {
				t.Errorf("ref %s: group vector %v with NoGroup", rc.ID, v)
			}
		}
	}
}

// TestProducerPoint: applying a vector at a consumer point must land on the
// producer's nest with the index displaced by IdxDiff.
func TestProducerPoint(t *testing.T) {
	np := figure1(10)
	vecs := Generate(np, cfg32, Options{})
	rc := findRef(np, "S3", "B", false)
	for _, v := range vecs[rc] {
		if v.Spatial || v.Self() {
			continue
		}
		label, pidx := v.ProducerPoint([]int64{5, 7})
		wantLabel := v.Producer.Stmt.Label
		for k := range label {
			if label[k] != wantLabel[k] {
				t.Fatalf("producer label = %v, want %v", label, wantLabel)
			}
		}
		if pidx[0] != 5-v.IdxDiff[0] || pidx[1] != 7-v.IdxDiff[1] {
			t.Fatalf("producer idx = %v for vector %v", pidx, v)
		}
	}
}

// TestSameNameArraysStayApart: two distinct arrays that share a name (the
// ir builder accepts both) form separate uniformly generated sets, so no
// vector links a reference of one to a reference of the other.
func TestSameNameArraysStayApart(t *testing.T) {
	b := ir.NewSub("twin")
	a0 := b.Real8("A", 64)
	a1 := b.Real8("A", 64)
	b.Do("I1", ir.Con(1), ir.Con(64)).
		Assign("S1", ir.R(a0, ir.Var("I1")), ir.R(a1, ir.Var("I1"))).
		End()
	np, err := normalize.Normalize(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if sets := UniformSets(np); len(sets) != 2 {
		t.Fatalf("uniform sets = %d, want 2 (one per array)", len(sets))
	}
	for rc, vs := range Generate(np, cfg32, Options{}) {
		for _, v := range vs {
			if v.Producer.Array != rc.Array {
				t.Errorf("cross-array vector %v", v)
			}
		}
	}
}
