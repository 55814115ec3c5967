package scm

import (
	"fmt"
	"math"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
)

// FitLinear estimates a linear-Gaussian SCM for the given DAG from observed
// data: each node is regressed (OLS with intercept) on its parents, and the
// residual standard deviation becomes its Gaussian noise scale. Latent nodes
// are not supported (they cannot be fit from data).
//
// This is how E7 builds the "detailed model of how routing and latency
// interact" that the paper says counterfactual queries require: structure
// from domain knowledge, parameters from measurements.
func FitLinear(g *dag.Graph, f *data.Frame) (*Model, error) {
	for _, n := range g.Nodes() {
		if g.IsLatent(n) {
			return nil, fmt.Errorf("scm: cannot fit latent node %q from data", n)
		}
		if !f.Has(n) {
			return nil, fmt.Errorf("scm: data has no column for node %q", n)
		}
	}
	m := New()
	for _, n := range g.TopologicalOrder() {
		parents := g.Parents(n)
		y := f.MustColumn(n)
		rows := f.Len()
		if rows < len(parents)+2 {
			return nil, fmt.Errorf("scm: %d rows too few to fit node %q with %d parents", rows, n, len(parents))
		}
		// Design matrix: intercept + parents.
		x := mathx.NewMatrix(rows, len(parents)+1)
		for i := 0; i < rows; i++ {
			x.Set(i, 0, 1)
		}
		for j, p := range parents {
			col := f.MustColumn(p)
			for i := 0; i < rows; i++ {
				x.Set(i, j+1, col[i])
			}
		}
		beta, err := mathx.LeastSquares(x, mathx.Vector(y))
		if err != nil {
			return nil, fmt.Errorf("scm: fitting node %q: %w", n, err)
		}
		// Residual standard deviation.
		pred := x.MulVec(beta)
		var ss float64
		for i := range y {
			d := y[i] - pred[i]
			ss += d * d
		}
		df := float64(rows - len(parents) - 1)
		std := math.Sqrt(ss / df)

		coeffs := make(map[string]float64, len(parents))
		for j, p := range parents {
			coeffs[p] = beta[j+1]
		}
		if err := m.DefineLinear(n, coeffs, beta[0], GaussianNoise(std)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Coefficient returns the fitted (or defined) linear coefficient of parent
// on node, and whether the node's mechanism exposes one. Only mechanisms
// created through DefineLinear report coefficients; it probes the mechanism
// by finite differencing, which is exact for linear models.
func (m *Model) Coefficient(node, parent string) (float64, bool) {
	eq, ok := m.eqs[node]
	if !ok {
		return 0, false
	}
	hasParent := false
	for _, p := range eq.parents {
		if p == parent {
			hasParent = true
		}
	}
	if !hasParent {
		return 0, false
	}
	pa := make(map[string]float64, len(eq.parents))
	for _, p := range eq.parents {
		pa[p] = 0
	}
	y0 := eq.base(pa)
	pa[parent] = 1
	y1 := eq.base(pa)
	return y1 - y0, true
}
