package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnown(t *testing.T) {
	a := matrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := Vector{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Fatalf("x = %v want %v", x, want)
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := matrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, Vector{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.Normal(0, 1)
		}
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		xTrue := make(Vector, n)
		for i := range xTrue {
			xTrue[i] = r.Normal(0, 3)
		}
		b := a.MulVec(xTrue)
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvert(t *testing.T) {
	a := matrixFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(prod.At(i, j), want, 1e-10) {
				t.Fatalf("a*inv = %v", prod)
			}
		}
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	r := NewRNG(42)
	n, p := 200, 3
	beta := Vector{1.5, -2.0, 0.5}
	a := NewMatrix(n, p)
	b := make(Vector, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			a.Set(i, j, r.Normal(0, 1))
		}
		b[i] = a.Row(i).Dot(beta) + r.Normal(0, 0.01)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range beta {
		if !almostEqual(x[j], beta[j], 0.01) {
			t.Fatalf("beta = %v want %v", x, beta)
		}
	}
}

func TestLeastSquaresRankDeficientFallsBackToRidge(t *testing.T) {
	// Two identical columns: AᵀA singular, ridge fallback must still return.
	a := matrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := Vector{2, 4, 6}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction should still be accurate even if coefficients are split.
	pred := a.MulVec(x)
	for i := range b {
		if !almostEqual(pred[i], b[i], 1e-3) {
			t.Fatalf("pred = %v want %v", pred, b)
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	r := NewRNG(1)
	n := 50
	a := NewMatrix(n, 2)
	b := make(Vector, n)
	for i := 0; i < n; i++ {
		a.Set(i, 0, r.Normal(0, 1))
		a.Set(i, 1, r.Normal(0, 1))
		b[i] = 3*a.At(i, 0) - 2*a.At(i, 1) + r.Normal(0, 0.1)
	}
	xOLS, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	xBig, err := RidgeSolve(a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if xBig.Norm() >= xOLS.Norm() {
		t.Fatalf("ridge did not shrink: %v vs %v", xBig.Norm(), xOLS.Norm())
	}
}

func TestSVDReconstruction(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 2)
		}
		d := ComputeSVD(m)
		rec := d.Reconstruct(0)
		return maxAbsDiff(rec, m) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSVDSingularValuesSortedNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m := NewMatrix(2+r.Intn(6), 2+r.Intn(6))
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1)
		}
		d := ComputeSVD(m)
		for i, sv := range d.S {
			if sv < 0 {
				return false
			}
			if i > 0 && d.S[i-1] < sv-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	r := NewRNG(99)
	m := NewMatrix(10, 4)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	d := ComputeSVD(m)
	utu := d.U.T().Mul(d.U)
	vtv := d.V.T().Mul(d.V)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(utu.At(i, j), want, 1e-8) {
				t.Fatalf("UᵀU not identity:\n%v", utu)
			}
			if !almostEqual(vtv.At(i, j), want, 1e-8) {
				t.Fatalf("VᵀV not identity:\n%v", vtv)
			}
		}
	}
}

func TestSVDLowRankTruncation(t *testing.T) {
	// Build an exactly rank-2 matrix; truncation at k=2 must be exact.
	u := matrixFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}, {2, -1}})
	v := matrixFromRows([][]float64{{1, 2, 3}, {-1, 0, 1}})
	m := u.Mul(v)
	d := ComputeSVD(m)
	if len(d.S) != 3 || d.S[1] <= 1e-10*d.S[0] || d.S[2] > 1e-10*d.S[0] {
		t.Fatalf("singular values = %v, want exactly two above tolerance", d.S)
	}
	rec := d.Reconstruct(2)
	if maxAbsDiff(rec, m) > 1e-8 {
		t.Fatal("rank-2 truncation not exact on rank-2 matrix")
	}
}

func TestSVDHardThreshold(t *testing.T) {
	m := matrixFromRows([][]float64{{10, 0}, {0, 0.001}})
	d := ComputeSVD(m)
	den := d.HardThreshold(1)
	if !almostEqual(den.At(0, 0), 10, 1e-9) {
		t.Fatalf("kept large sv: %v", den.At(0, 0))
	}
	if math.Abs(den.At(1, 1)) > 1e-12 {
		t.Fatalf("small sv should be zeroed, got %v", den.At(1, 1))
	}
}
