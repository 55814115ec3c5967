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
func ComputeSVD(a *Matrix) SVD {
	transposed := false
	work := a.Clone()
	if work.Rows < work.Cols {
		work = work.T()
		transposed = true
	}
	r, c := work.Rows, work.Cols // r >= c

	// v accumulates the right-side rotations: work_final = A * v.
	v := Identity(c)

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
		col := work.Col(j)
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
		uSorted.SetCol(newJ, u.Col(oldJ))
		vSorted.SetCol(newJ, v.Col(oldJ))
	}

	if transposed {
		// A = (work)ᵀ = (U S Vᵀ)ᵀ = V S Uᵀ, so swap roles.
		return SVD{U: vSorted, S: sSorted, V: uSorted}
	}
	return SVD{U: uSorted, S: sSorted, V: vSorted}
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
