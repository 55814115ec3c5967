package mathx

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition A = U diag(S) Vᵀ where A is
// r-by-c, U is r-by-k, V is c-by-k, and k = min(r, c). Singular values are
// sorted in descending order.
type SVD struct {
	U *Matrix
	S Vector
	V *Matrix
}

// ComputeSVD computes a thin SVD of a using the one-sided Jacobi method
// applied to the (possibly transposed) matrix so that we always orthogonalize
// the columns of the taller orientation. One-sided Jacobi is slow in the
// asymptotic sense but simple, numerically robust, and more than fast enough
// for the donor-pool-sized matrices in this repository.
//
// The sweeps rotate pairs of columns, so the work matrix and the rotation
// accumulator are held column-major: each column is one contiguous slice.
// The row-major U and V are assembled once, after the sort.
func ComputeSVD(a *Matrix) SVD {
	transposed := a.Rows < a.Cols
	r, c := a.Rows, a.Cols
	if transposed {
		r, c = c, r
	}
	// work holds the r-by-c orientation column-major: column j is
	// work[j*r:(j+1)*r]. Column j of Aᵀ is row j of A, already contiguous.
	work := make([]float64, r*c)
	if transposed {
		copy(work, a.Data)
	} else {
		for i := 0; i < r; i++ {
			for j, x := range a.Data[i*c : (i+1)*c] {
				work[j*r+i] = x
			}
		}
	}
	col := func(j int) []float64 { return work[j*r : (j+1)*r] }

	// v accumulates the right-side rotations (work_final = A * v), also
	// column-major: column j is v[j*c:(j+1)*c].
	v := make([]float64, c*c)
	vcol := func(j int) []float64 { return v[j*c : (j+1)*c] }
	for j := 0; j < c; j++ {
		vcol(j)[j] = 1
	}

	const maxSweeps = 60
	// Rotate pairs of columns until all are pairwise orthogonal.
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < c-1; p++ {
			wp := col(p)
			for q := p + 1; q < c; q++ {
				wq := col(q)
				var alpha, beta, gamma float64
				for i, xp := range wp {
					xq := wq[i]
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
				rotate(wp, wq, cs, sn)
				rotate(vcol(p), vcol(q), cs, sn)
			}
		}
		if off < 1e-30 {
			break
		}
	}

	// Column norms are the singular values; normalized columns form U
	// (assembled in sorted order below).
	s := make(Vector, c)
	for j := range s {
		s[j] = Vector(col(j)).Norm()
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
		n := s[oldJ]
		sSorted[newJ] = n
		if n > 1e-300 {
			for i, x := range col(oldJ) {
				uSorted.Data[i*c+newJ] = x / n
			}
		}
		for i, x := range vcol(oldJ) {
			vSorted.Data[i*c+newJ] = x
		}
	}

	if transposed {
		// A = (work)ᵀ = (U S Vᵀ)ᵀ = V S Uᵀ, so swap roles.
		return SVD{U: vSorted, S: sSorted, V: uSorted}
	}
	return SVD{U: uSorted, S: sSorted, V: vSorted}
}

// rotate applies the Jacobi rotation (cs, sn) to the column pair (x, y):
// x ← cs·x − sn·y, y ← sn·x + cs·y.
func rotate(x, y []float64, cs, sn float64) {
	y = y[:len(x)]
	for i, xp := range x {
		xq := y[i]
		x[i] = cs*xp - sn*xq
		y[i] = sn*xp + cs*xq
	}
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Reconstruct rebuilds the matrix U diag(S) Vᵀ, optionally truncated to the
// top k singular values (k <= 0 means all).
func (d SVD) Reconstruct(k int) *Matrix {
	n := len(d.S)
	if k <= 0 || k > n {
		k = n
	}
	r := d.U.Rows
	c := d.V.Rows
	out := NewMatrix(r, c)
	for t := 0; t < k; t++ {
		sv := d.S[t]
		if sv == 0 {
			continue
		}
		for i := 0; i < r; i++ {
			ui := d.U.At(i, t) * sv
			if ui == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				out.Data[i*c+j] += ui * d.V.At(j, t)
			}
		}
	}
	return out
}

// HardThreshold returns the reconstruction keeping only singular values
// strictly greater than tau.
func (d SVD) HardThreshold(tau float64) *Matrix {
	k := 0
	for _, sv := range d.S {
		if sv > tau {
			k++
		}
	}
	return d.Reconstruct(k)
}
