package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestVectorDotNormSum(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := v.Dot(w); got != 1*4-2*5+3*6 {
		t.Fatalf("dot = %v", got)
	}
	if got := v.Norm(); !almostEqual(got, math.Sqrt(14), 1e-12) {
		t.Fatalf("norm = %v", got)
	}
	if got := v.Sum(); got != 6 {
		t.Fatalf("sum = %v", got)
	}
	if got := v.Mean(); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestVectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{3, 4}
	if got := v.Add(w); got[0] != 4 || got[1] != 6 {
		t.Fatalf("add = %v", got)
	}
	if got := w.Sub(v); got[0] != 2 || got[1] != 2 {
		t.Fatalf("sub = %v", got)
	}
	x := Vector{0, 0}.AddScaled(3, Vector{1, 2})
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("addScaled = %v", x)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE(Vector{0, 0}, Vector{3, 4}); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("rmse = %v", got)
	}
	if !math.IsNaN(RMSE(Vector{}, Vector{})) {
		t.Fatal("rmse of empty should be NaN")
	}
}

func TestMatrixMul(t *testing.T) {
	a := matrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := matrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul[%d][%d] = %v want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows := 1 + r.Intn(6)
		cols := 1 + r.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1)
		}
		tt := m.T().T()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMulVecAgainstMul(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows := 1 + r.Intn(5)
		cols := 1 + r.Intn(5)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 2)
		}
		v := make(Vector, cols)
		for i := range v {
			v[i] = r.Normal(0, 2)
		}
		got := m.MulVec(v)
		vm := NewMatrix(cols, 1)
		vm.SetCol(0, v)
		want := m.Mul(vm)
		for i := 0; i < rows; i++ {
			if !almostEqual(got[i], want.At(i, 0), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityIsMulNeutral(t *testing.T) {
	r := NewRNG(7)
	m := NewMatrix(4, 4)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	p := m.Mul(Identity(4))
	q := Identity(4).Mul(m)
	for i := range m.Data {
		if !almostEqual(p.Data[i], m.Data[i], 1e-12) || !almostEqual(q.Data[i], m.Data[i], 1e-12) {
			t.Fatal("identity not neutral")
		}
	}
}

func TestRowColRoundTrip(t *testing.T) {
	m := matrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if r := m.Row(1); r[0] != 4 || r[2] != 6 {
		t.Fatalf("row = %v", r)
	}
	if c := m.Col(2); c[0] != 3 || c[1] != 6 {
		t.Fatalf("col = %v", c)
	}
	m.SetRow(0, Vector{7, 8, 9})
	if m.At(0, 1) != 8 {
		t.Fatal("setRow failed")
	}
	m.SetCol(0, Vector{10, 11})
	if m.At(1, 0) != 11 {
		t.Fatal("setCol failed")
	}
}

func TestMatrixScale(t *testing.T) {
	a := matrixFromRows([][]float64{{3, 0}, {0, 4}})
	if got := a.Scale(2).At(1, 1); got != 8 {
		t.Fatalf("scale = %v", got)
	}
	if a.At(1, 1) != 4 {
		t.Fatal("scale mutated its receiver")
	}
}

// matrixFromRows builds a matrix from equal-length rows.
func matrixFromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// maxAbsDiff returns the largest absolute elementwise difference of two
// equally shaped matrices.
func maxAbsDiff(a, b *Matrix) float64 {
	var mx float64
	for i := range a.Data {
		mx = math.Max(mx, math.Abs(a.Data[i]-b.Data[i]))
	}
	return mx
}
