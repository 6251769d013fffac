// Package qpoly implements univariate quasi-polynomials with exact
// rational coefficients: functions of an integer parameter n whose value
// is a polynomial in n with coefficients that depend periodically on
// n mod L. By Ehrhart's theorem the number of lattice points of a
// parametric polytope whose facets move affinely with n is exactly such a
// function (piecewise, over "chambers" of n where the combinatorial
// structure is constant), which is what lets the cache model answer
// size-scaling questions with one symbolic solve and O(1) evaluation per
// size instead of re-enumerating each iteration space.
//
// The companion Piecewise type carries a quasi-polynomial per chamber
// (an interval of n), and Fit recovers the exact coefficients from
// sampled values by rational interpolation.
package qpoly

import (
	"fmt"
	"strings"

	"cachemodel/internal/linalg"
)

// QPoly is a quasi-polynomial: value(n) = Σ_d coef[n mod L][d] · n^d,
// where L is the period of the coefficient pattern. The zero value is the
// zero quasi-polynomial (period 1, no coefficients). Coefficients are
// exact rationals; arithmetic on them panics with *linalg.OverflowError
// rather than silently wrapping.
type QPoly struct {
	period int64
	// coef[r] holds the coefficient vector (index = degree) used when
	// n ≡ r (mod period); rows may have different lengths.
	coef [][]linalg.Rat
}

// Zero returns the zero quasi-polynomial.
func Zero() QPoly { return QPoly{} }

// Const returns the constant quasi-polynomial c.
func Const(c linalg.Rat) QPoly {
	if c.IsZero() {
		return Zero()
	}
	return QPoly{period: 1, coef: [][]linalg.Rat{{c}}}
}

// ConstInt returns the constant quasi-polynomial c.
func ConstInt(c int64) QPoly { return Const(linalg.RatInt(c)) }

// X returns the identity quasi-polynomial n ↦ n.
func X() QPoly {
	return QPoly{period: 1, coef: [][]linalg.Rat{{linalg.RatInt(0), linalg.RatInt(1)}}}
}

// New builds a quasi-polynomial from explicit per-residue coefficient
// rows: coef[r][d] multiplies n^d when n ≡ r (mod len(coef)). The rows
// are copied. New panics if coef is empty.
func New(coef [][]linalg.Rat) QPoly {
	if len(coef) == 0 {
		panic("qpoly: New needs at least one residue row")
	}
	q := QPoly{period: int64(len(coef)), coef: make([][]linalg.Rat, len(coef))}
	for r, row := range coef {
		q.coef[r] = append([]linalg.Rat(nil), row...)
	}
	return q.Canon()
}

// Period returns the coefficient period L (1 for a plain polynomial,
// including the zero quasi-polynomial).
func (q QPoly) Period() int64 {
	if q.period == 0 {
		return 1
	}
	return q.period
}

// Degree returns the largest degree with a non-zero coefficient in any
// residue row, or -1 for the zero quasi-polynomial.
func (q QPoly) Degree() int {
	deg := -1
	for _, row := range q.coef {
		for d := len(row) - 1; d >= 0; d-- {
			if !row[d].IsZero() && d > deg {
				deg = d
			}
		}
	}
	return deg
}

// IsZero reports whether q is identically zero.
func (q QPoly) IsZero() bool { return q.Degree() < 0 }

// Mod returns the representative of n modulo m in [0, m) (floor mod).
func Mod(n, m int64) int64 {
	r := n % m
	if r < 0 {
		r += m
	}
	return r
}

// row returns the coefficient row active at n (nil for the zero value).
func (q QPoly) row(n int64) []linalg.Rat {
	if len(q.coef) == 0 {
		return nil
	}
	return q.coef[Mod(n, q.period)]
}

// Eval returns q(n) as an exact rational, by Horner evaluation of the
// residue row active at n.
func (q QPoly) Eval(n int64) linalg.Rat {
	row := q.row(n)
	v := linalg.RatInt(0)
	x := linalg.RatInt(n)
	for d := len(row) - 1; d >= 0; d-- {
		v = v.Mul(x).Add(row[d])
	}
	return v
}

// EvalInt returns q(n) as an int64, reporting whether the value is an
// integer (lattice-point counts always are; a false return means the
// quasi-polynomial does not describe a count at this n).
func (q QPoly) EvalInt(n int64) (int64, bool) {
	return q.Eval(n).Int()
}

// lift returns q's coefficient rows re-indexed modulo L (a multiple of
// q's period).
func (q QPoly) lift(L int64) [][]linalg.Rat {
	rows := make([][]linalg.Rat, L)
	for r := int64(0); r < L; r++ {
		rows[r] = q.row(r)
	}
	return rows
}

// Add returns q + p; the result's period is lcm of the operands'.
func (q QPoly) Add(p QPoly) QPoly {
	L := linalg.LCM(q.Period(), p.Period())
	a, b := q.lift(L), p.lift(L)
	out := make([][]linalg.Rat, L)
	for r := int64(0); r < L; r++ {
		n := len(a[r])
		if len(b[r]) > n {
			n = len(b[r])
		}
		row := make([]linalg.Rat, n)
		for d := 0; d < n; d++ {
			var x, y linalg.Rat
			if d < len(a[r]) {
				x = a[r][d]
			}
			if d < len(b[r]) {
				y = b[r][d]
			}
			row[d] = x.Add(y)
		}
		out[r] = row
	}
	return (QPoly{period: L, coef: out}).Canon()
}

// Neg returns −q.
func (q QPoly) Neg() QPoly { return q.Scale(linalg.RatInt(-1)) }

// Sub returns q − p.
func (q QPoly) Sub(p QPoly) QPoly { return q.Add(p.Neg()) }

// Scale returns c·q.
func (q QPoly) Scale(c linalg.Rat) QPoly {
	if c.IsZero() || len(q.coef) == 0 {
		return Zero()
	}
	out := make([][]linalg.Rat, len(q.coef))
	for r, row := range q.coef {
		nr := make([]linalg.Rat, len(row))
		for d, v := range row {
			nr[d] = v.Mul(c)
		}
		out[r] = nr
	}
	return (QPoly{period: q.period, coef: out}).Canon()
}

// Mul returns q × p; per residue the coefficient rows convolve, and the
// result's period is lcm of the operands'.
func (q QPoly) Mul(p QPoly) QPoly {
	if q.IsZero() || p.IsZero() {
		return Zero()
	}
	L := linalg.LCM(q.Period(), p.Period())
	a, b := q.lift(L), p.lift(L)
	out := make([][]linalg.Rat, L)
	for r := int64(0); r < L; r++ {
		if len(a[r]) == 0 || len(b[r]) == 0 {
			out[r] = nil
			continue
		}
		row := make([]linalg.Rat, len(a[r])+len(b[r])-1)
		for i, x := range a[r] {
			if x.IsZero() {
				continue
			}
			for j, y := range b[r] {
				row[i+j] = row[i+j].Add(x.Mul(y))
			}
		}
		out[r] = row
	}
	return (QPoly{period: L, coef: out}).Canon()
}

// Canon returns the canonical form of q: trailing zero coefficients are
// trimmed per residue row, and the period is reduced to the smallest
// divisor under which all residue rows agree. Equal quasi-polynomials
// have identical canonical forms.
func (q QPoly) Canon() QPoly {
	if len(q.coef) == 0 {
		return QPoly{}
	}
	rows := make([][]linalg.Rat, len(q.coef))
	for r, row := range q.coef {
		n := len(row)
		for n > 0 && row[n-1].IsZero() {
			n--
		}
		rows[r] = row[:n]
	}
	L := int64(len(rows))
	// Smallest divisor m of L with rows[r] == rows[r mod m] for all r.
	for m := int64(1); m <= L; m++ {
		if L%m != 0 {
			continue
		}
		ok := true
		for r := int64(0); r < L && ok; r++ {
			ok = rowsEqual(rows[r], rows[Mod(r, m)])
		}
		if ok {
			out := make([][]linalg.Rat, m)
			for r := int64(0); r < m; r++ {
				out[r] = append([]linalg.Rat(nil), rows[r]...)
			}
			if m == 1 && len(out[0]) == 0 {
				return QPoly{}
			}
			return QPoly{period: m, coef: out}
		}
	}
	return QPoly{period: L, coef: rows} // unreachable: m == L always agrees
}

func rowsEqual(a, b []linalg.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether q and p take the same value at every integer.
func (q QPoly) Equal(p QPoly) bool {
	L := linalg.LCM(q.Period(), p.Period())
	a, b := q.lift(L), p.lift(L)
	for r := int64(0); r < L; r++ {
		// Compare padded rows: degree mismatch with zero tail is fine.
		n := len(a[r])
		if len(b[r]) > n {
			n = len(b[r])
		}
		for d := 0; d < n; d++ {
			var x, y linalg.Rat
			if d < len(a[r]) {
				x = a[r][d]
			}
			if d < len(b[r]) {
				y = b[r][d]
			}
			if x.Cmp(y) != 0 {
				return false
			}
		}
	}
	return true
}

// String renders q per residue, e.g. "[n≡0 (mod 2)] 1/2·n^2 + n".
func (q QPoly) String() string {
	if q.IsZero() {
		return "0"
	}
	c := q.Canon()
	var sb strings.Builder
	for r, row := range c.coef {
		if r > 0 {
			sb.WriteString("; ")
		}
		if c.period > 1 {
			fmt.Fprintf(&sb, "[n≡%d (mod %d)] ", r, c.period)
		}
		sb.WriteString(rowString(row))
	}
	return sb.String()
}

func rowString(row []linalg.Rat) string {
	var terms []string
	for d := len(row) - 1; d >= 0; d-- {
		c := row[d]
		if c.IsZero() {
			continue
		}
		var t string
		switch {
		case d == 0:
			t = c.String()
		case d == 1:
			t = coeffPrefix(c) + "n"
		default:
			t = fmt.Sprintf("%sn^%d", coeffPrefix(c), d)
		}
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return "0"
	}
	return strings.Join(terms, " + ")
}

func coeffPrefix(c linalg.Rat) string {
	if c.Cmp(linalg.RatInt(1)) == 0 {
		return ""
	}
	return c.String() + "·"
}
