package qpoly

import (
	"testing"

	"cachemodel/internal/linalg"
)

func rat(n, d int64) linalg.Rat { return linalg.NewRat(n, d) }

// q1 is the canonical Ehrhart example: ⌊n/2⌋ + 1 = n/2 + 1 for even n,
// (n+1)/2 for odd n — period 2, degree 1.
func halfFloorPlusOne() QPoly {
	return New([][]linalg.Rat{
		{rat(1, 1), rat(1, 2)}, // n even: 1 + n/2
		{rat(1, 2), rat(1, 2)}, // n odd: 1/2 + n/2
	})
}

func TestQPolyEval(t *testing.T) {
	q := halfFloorPlusOne()
	for n := int64(-5); n <= 20; n++ {
		want := n/2 + 1
		if n < 0 && n%2 != 0 {
			want = (n - 1) / 2 // floor division for negative odd n
		}
		want = floorDiv(n, 2) + 1
		got, ok := q.EvalInt(n)
		if !ok || got != want {
			t.Fatalf("Eval(%d): got %d (ok=%v), want %d", n, got, ok, want)
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func TestQPolyArith(t *testing.T) {
	q := halfFloorPlusOne()
	x := X()
	sum := q.Add(x)
	prod := q.Mul(x)
	diff := sum.Sub(x)
	for n := int64(0); n <= 16; n++ {
		qv := q.Eval(n)
		if got := sum.Eval(n); got.Cmp(qv.Add(linalg.RatInt(n))) != 0 {
			t.Fatalf("Add at %d: %s", n, got)
		}
		if got := prod.Eval(n); got.Cmp(qv.Mul(linalg.RatInt(n))) != 0 {
			t.Fatalf("Mul at %d: %s", n, got)
		}
		if got := diff.Eval(n); got.Cmp(qv) != 0 {
			t.Fatalf("Sub roundtrip at %d: %s vs %s", n, got, qv)
		}
	}
	if !diff.Equal(q) {
		t.Fatalf("Equal: (q+x)-x != q: %s vs %s", diff, q)
	}
}

func TestQPolyCanonReducesPeriod(t *testing.T) {
	// Period-4 rows that are really period-2.
	rows := [][]linalg.Rat{
		{rat(1, 1)}, {rat(2, 1)}, {rat(1, 1)}, {rat(2, 1)},
	}
	q := New(rows)
	if q.Period() != 2 {
		t.Fatalf("Canon period: got %d, want 2", q.Period())
	}
	// A constant written with period 3 reduces to period 1.
	c := New([][]linalg.Rat{{rat(7, 2)}, {rat(7, 2)}, {rat(7, 2)}})
	if c.Period() != 1 || c.Degree() != 0 {
		t.Fatalf("Canon constant: period %d degree %d", c.Period(), c.Degree())
	}
	// Trailing zero coefficients trim.
	z := New([][]linalg.Rat{{rat(1, 1), {}, {}}})
	if z.Degree() != 0 {
		t.Fatalf("Canon trim: degree %d, want 0", z.Degree())
	}
	if !Zero().Equal(New([][]linalg.Rat{{}, {}})) {
		t.Fatal("zero equality across periods")
	}
}

func TestFitPolyExactAndVerify(t *testing.T) {
	// f(n) = (3n² − n)/2 sampled at 5 points; degree 2 fit must verify the
	// 2 extra points and reproduce the coefficients exactly.
	f := func(n int64) linalg.Rat {
		return rat(3*n*n-n, 2)
	}
	var ss []Sample
	for _, n := range []int64{4, 7, 10, 13, 16} {
		ss = append(ss, Sample{N: n, V: f(n)})
	}
	coef, err := FitPoly(2, ss)
	if err != nil {
		t.Fatal(err)
	}
	want := []linalg.Rat{{}, rat(-1, 2), rat(3, 2)}
	for d, w := range want {
		if coef[d].Cmp(w) != 0 {
			t.Fatalf("coef[%d]: got %s, want %s", d, coef[d], w)
		}
	}
	// Perturb one holdout sample: verification must fail.
	ss[4].V = ss[4].V.Add(rat(1, 1))
	if _, err := FitPoly(2, ss); err == nil {
		t.Fatal("perturbed fit verified unexpectedly")
	}
}

func TestFitQuasiPolynomial(t *testing.T) {
	// f(n) = n²/4 for even n, (n²−1)/4 for odd n (= ⌊n²/4⌋): period 2,
	// degree 2. Sample each residue at 4 points (3 fit + 1 verify).
	f := func(n int64) linalg.Rat { return rat(n*n-Mod(n, 2), 4) }
	var ss []Sample
	for n := int64(10); n < 18; n++ {
		ss = append(ss, Sample{N: n, V: f(n)})
	}
	q, err := Fit(2, 2, ss)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n <= 40; n++ {
		if got := q.Eval(n); got.Cmp(f(n)) != 0 {
			t.Fatalf("Fit eval at %d: got %s, want %s", n, got, f(n))
		}
	}
	// Missing residue: period 4 with samples only covering two classes.
	if _, err := Fit(4, 2, ss[:4]); err == nil {
		t.Fatal("Fit with uncovered residues succeeded unexpectedly")
	}
}

func TestPiecewise(t *testing.T) {
	q := halfFloorPlusOne()
	pw, err := FromPieces([]Piece{
		{Lo: 0, Hi: 9, Poly: ConstInt(5)},
		{Lo: 10, Hi: Inf, Poly: q},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pw.EvalInt(3); !ok || v != 5 {
		t.Fatalf("piece 1 eval: %d %v", v, ok)
	}
	if v, ok := pw.EvalInt(12); !ok || v != 7 {
		t.Fatalf("piece 2 eval: %d %v", v, ok)
	}
	if _, ok := pw.EvalInt(-1); ok {
		t.Fatal("eval outside domain succeeded")
	}
	// Overlap is rejected.
	if _, err := FromPieces([]Piece{{Lo: 0, Hi: 5}, {Lo: 5, Hi: 9}}); err == nil {
		t.Fatal("overlapping chambers accepted")
	}
	// Arithmetic refines chambers on the domain intersection.
	other, _ := FromPieces([]Piece{{Lo: 5, Hi: Inf, Poly: X()}})
	sum := pw.Add(other)
	if lo, hi, ok := sum.Domain(); !ok || lo != 5 || hi != Inf {
		t.Fatalf("combined domain: [%d, %d] ok=%v", lo, hi, ok)
	}
	for _, n := range []int64{5, 9, 10, 11, 31} {
		a, _ := pw.Eval(n)
		b, _ := other.Eval(n)
		got, ok := sum.Eval(n)
		if !ok || got.Cmp(a.Add(b)) != 0 {
			t.Fatalf("piecewise Add at %d: %s", n, got)
		}
	}
	// Canon merges adjacent chambers with equal polynomials.
	frag, _ := FromPieces([]Piece{
		{Lo: 0, Hi: 4, Poly: X()},
		{Lo: 5, Hi: 9, Poly: X()},
		{Lo: 10, Hi: Inf, Poly: X()},
	})
	if got := len(frag.Canon().Pieces()); got != 1 {
		t.Fatalf("Canon merge: %d pieces, want 1", got)
	}
	whole, _ := FromPieces([]Piece{{Lo: 0, Hi: Inf, Poly: X()}})
	if !frag.Equal(whole) {
		t.Fatal("Equal after merge")
	}
}
