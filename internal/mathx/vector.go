// Package mathx provides the numerical substrate used throughout the
// repository: dense vectors and matrices, linear solvers, a one-sided
// Jacobi SVD, regression helpers, summary statistics, probability
// distributions, and a deterministic random source.
//
// Everything is implemented with the standard library only. The package
// favours clarity and numerical robustness over raw speed: matrices in this
// repository are small (donor pools of tens of units, weeks of hourly
// observations), so cubic algorithms with careful pivoting are the right
// trade-off.
package mathx

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: dot of length %d with %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or NaN for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return v.Sum() / float64(len(v))
}

// AddScaled sets v = v + a*w in place and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: addScaled of length %d with %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: sub of length %d with %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: add of length %d with %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Max returns the maximum element of v, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum element of v, or +Inf for an empty vector.
func (v Vector) Min() float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

// RMSE returns the root mean squared difference between v and w.
func RMSE(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mathx: rmse of length %d with %d", len(v), len(w)))
	}
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}
