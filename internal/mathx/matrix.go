package mathx

import (
	"fmt"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with r rows and c columns.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mathx: invalid matrix dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a copy of row i as a Vector.
func (m *Matrix) Row(i int) Vector {
	out := make(Vector, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v Vector) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: setRow length %d into %d cols", len(v), m.Cols))
	}
	copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v Vector) {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("mathx: setCol length %d into %d rows", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, j, v[i])
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mathx: mul %dx%d by %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v Vector) Vector {
	out := make(Vector, m.Rows)
	m.MulVecTo(out, v)
	return out
}

// MulVecTo writes the matrix-vector product m * v into out, which must have
// length m.Rows, without allocating.
//
// Rows go four at a time through one pass over v, each with its own
// accumulator: four independent add chains keep the loop from waiting on
// one add's latency. Every row still sums its products left to right
// (s += row[j]*v[j]), so out is bit-identical to one row at a time.
func (m *Matrix) MulVecTo(out, v Vector) {
	if m.Cols != len(v) || m.Rows != len(out) {
		panic(fmt.Sprintf("mathx: mulVec %dx%d by %d into %d", m.Rows, m.Cols, len(v), len(out)))
	}
	c := len(v)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		r0 := m.Data[i*c : (i+1)*c]
		r1 := m.Data[(i+1)*c : (i+2)*c]
		r2 := m.Data[(i+2)*c : (i+3)*c]
		r3 := m.Data[(i+3)*c : (i+4)*c]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		o := out[i : i+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; i < len(out); i++ {
		row := m.Data[i*c : (i+1)*c][:len(v)] // proves row[j] in bounds
		var s float64
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
}

// Scale returns a*m as a new matrix.
func (m *Matrix) Scale(a float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= a
	}
	return out
}
