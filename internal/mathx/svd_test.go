package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// computeSVDReference is the row-major one-sided Jacobi SVD that
// ComputeSVD's column-major loop replaced, kept verbatim as the oracle: the
// two must agree bit for bit in U, S and V, because every synthetic-control
// weight, placebo ratio and golden downstream is built on these bits.
func computeSVDReference(a *Matrix) SVD {
	transposed := false
	work := a.Clone()
	if work.Rows < work.Cols {
		work = work.T()
		transposed = true
	}
	r, c := work.Rows, work.Cols // r >= c

	// v accumulates the right-side rotations: work_final = A * v.
	v := identity(c)

	const maxSweeps = 60
	// Rotate pairs of columns until all are pairwise orthogonal.
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < c-1; p++ {
			for q := p + 1; q < c; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < r; i++ {
					xp := work.At(i, p)
					xq := work.At(i, q)
					alpha += xp * xp
					beta += xq * xq
					gamma += xp * xq
				}
				if math.Abs(gamma) < 1e-15*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				off += gamma * gamma
				// Compute the Jacobi rotation that zeroes gamma.
				zeta := (beta - alpha) / (2 * gamma)
				t := sign(zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				for i := 0; i < r; i++ {
					xp := work.At(i, p)
					xq := work.At(i, q)
					work.Set(i, p, cs*xp-sn*xq)
					work.Set(i, q, sn*xp+cs*xq)
				}
				for i := 0; i < c; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, cs*vp-sn*vq)
					v.Set(i, q, sn*vp+cs*vq)
				}
			}
		}
		if off < 1e-30 {
			break
		}
	}

	// Column norms are the singular values; normalized columns form U.
	s := make(Vector, c)
	u := NewMatrix(r, c)
	for j := 0; j < c; j++ {
		col := column(work, j)
		n := col.Norm()
		s[j] = n
		if n > 1e-300 {
			for i := 0; i < r; i++ {
				u.Set(i, j, work.At(i, j)/n)
			}
		}
	}

	// Sort by descending singular value.
	idx := make([]int, c)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s[idx[i]] > s[idx[j]] })
	sSorted := make(Vector, c)
	uSorted := NewMatrix(r, c)
	vSorted := NewMatrix(c, c)
	for newJ, oldJ := range idx {
		sSorted[newJ] = s[oldJ]
		uSorted.SetCol(newJ, column(u, oldJ))
		vSorted.SetCol(newJ, column(v, oldJ))
	}

	if transposed {
		// A = (work)ᵀ = (U S Vᵀ)ᵀ = V S Uᵀ, so swap roles.
		return SVD{U: vSorted, S: sSorted, V: uSorted}
	}
	return SVD{U: uSorted, S: sSorted, V: vSorted}
}

// sameBits reports whether two float slices are equal under math.Float64bits
// (so NaN payloads and signed zeros must match too).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSVD(got, want SVD) bool {
	return got.U.Rows == want.U.Rows && got.U.Cols == want.U.Cols &&
		got.V.Rows == want.V.Rows && got.V.Cols == want.V.Cols &&
		sameBits(got.U.Data, want.U.Data) && sameBits(got.S, want.S) && sameBits(got.V.Data, want.V.Data)
}

// svdPropertyMatrix draws an rows-by-cols normal matrix and then degrades it
// by kind: 0 leaves it dense, 1 zeroes about a quarter of the cells, 2 copies
// columns over others (rank-deficient by duplication), 3 zeroes whole columns.
func svdPropertyMatrix(r *RNG, rows, cols int, kind uint8) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 3)
	}
	switch kind % 4 {
	case 1:
		for i := range m.Data {
			if r.Intn(4) == 0 {
				m.Data[i] = 0
			}
		}
	case 2:
		for k := 0; k < 1+cols/3; k++ {
			from, to := r.Intn(cols), r.Intn(cols)
			m.SetCol(to, column(m, from))
		}
	case 3:
		for k := 0; k < 1+cols/4; k++ {
			m.SetCol(r.Intn(cols), make(Vector, rows))
		}
	}
	return m
}

// TestComputeSVDMatchesReference holds the column-major ComputeSVD to the
// row-major reference bit for bit on random shapes from 1×1 to 46×30, tall
// and wide (the wide ones take the transposed path), dense, with zeroed
// cells, and rank-deficient through duplicate or zero columns.
func TestComputeSVDMatchesReference(t *testing.T) {
	f := func(seed uint64, rawRows, rawCols, kind uint8, wide bool) bool {
		r := NewRNG(seed)
		rows, cols := 1+int(rawRows)%46, 1+int(rawCols)%30
		if wide {
			rows, cols = cols, rows
		}
		m := svdPropertyMatrix(r, rows, cols, kind)
		in := m.Clone()
		got := ComputeSVD(m)
		if !sameBits(m.Data, in.Data) {
			t.Errorf("%dx%d: ComputeSVD modified its input", rows, cols)
			return false
		}
		if !sameSVD(got, computeSVDReference(m)) {
			t.Errorf("%dx%d kind %d: SVD differs from the reference", rows, cols, kind%4)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 720}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeSVDMatchesReferenceVectors covers the 1×n and n×1 edges of the
// property explicitly, dense and with a zero cell.
func TestComputeSVDMatchesReferenceVectors(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 46; n++ {
		for _, kind := range []uint8{0, 1} {
			for _, m := range []*Matrix{svdPropertyMatrix(r, 1, n, kind), svdPropertyMatrix(r, n, 1, kind)} {
				if !sameSVD(ComputeSVD(m), computeSVDReference(m)) {
					t.Fatalf("%dx%d kind %d: SVD differs from the reference", m.Rows, m.Cols, kind)
				}
			}
		}
	}
}
