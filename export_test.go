package sisyphus

import (
	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
)

// ciHelper exposes estimate.CITest to the package tests without exporting it
// through the public API.
func ciHelper(f *data.Frame, x, y string, controls []string) (estimate.CITestResult, error) {
	return estimate.CITest(f, x, y, controls)
}

// randomBenchDAG builds a random DAG for benchmarking d-separation.
func randomBenchDAG(r *mathx.RNG, n int, p float64) *dag.Graph {
	g := dag.New()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
		g.AddNode(names[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				// i < j, so the edge can never close a cycle.
				_ = g.AddEdge(names[i], names[j])
			}
		}
	}
	return g
}
