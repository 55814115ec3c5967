// Package scm implements structural causal models: the third rung of
// Pearl's ladder. A Model assigns each DAG node a mechanism X := f(pa(X), U)
// with independent noise U. It supports sampling (rung 1) and
// abduction–action–prediction counterfactuals under do-interventions
// (rung 3) — the reasoning the paper argues operators implicitly rely on
// when they ask "would this degradation have happened without the routing
// change?".
package scm

import (
	"fmt"
	"sort"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/mathx"
)

// NoiseFn draws a node's exogenous noise.
type NoiseFn func(r *mathx.RNG) float64

// GaussianNoise returns a NoiseFn drawing from N(0, std²).
func GaussianNoise(std float64) NoiseFn {
	return func(r *mathx.RNG) float64 { return r.Normal(0, std) }
}

// NoNoise returns a NoiseFn that is always zero (deterministic mechanism).
func NoNoise() NoiseFn {
	return func(*mathx.RNG) float64 { return 0 }
}

// equation is one structural assignment of the additive form
// X := base(pa(X)) + U, which is invertible in the noise and therefore
// supports exact abduction.
type equation struct {
	parents []string
	noise   NoiseFn
	base    func(parents map[string]float64) float64
}

// Model is a structural causal model over a DAG. Build it with
// DefineAdditive / DefineLinear and query with Sample and Counterfactual.
type Model struct {
	graph *dag.Graph
	eqs   map[string]equation
}

// New returns an empty model.
func New() *Model {
	return &Model{graph: dag.New(), eqs: make(map[string]equation)}
}

// DefineAdditive adds a node whose mechanism is base(parents) + noise.
// Additive mechanisms are invertible in the noise term, enabling exact
// abduction for counterfactual queries.
func (m *Model) DefineAdditive(node string, parents []string, base func(map[string]float64) float64, noise NoiseFn) error {
	return m.define(node, parents, equation{parents: parents, noise: noise, base: base})
}

// DefineLinear adds a node with mechanism
// intercept + Σ coeffs[p]·p + noise. The coefficient map's keys are the
// parent set.
func (m *Model) DefineLinear(node string, coeffs map[string]float64, intercept float64, noise NoiseFn) error {
	parents := make([]string, 0, len(coeffs))
	for p := range coeffs {
		parents = append(parents, p)
	}
	sort.Strings(parents)
	cp := make(map[string]float64, len(coeffs))
	for k, v := range coeffs {
		cp[k] = v
	}
	// Sum in sorted-parent order, never map order: float addition is not
	// associative, and ranging over the map reorders the sum per process
	// (Go randomizes map iteration), leaking ULP-level nondeterminism into
	// every linear SCM draw and breaking cross-run replay.
	base := func(pa map[string]float64) float64 {
		s := intercept
		for _, p := range parents {
			s += cp[p] * pa[p]
		}
		return s
	}
	return m.DefineAdditive(node, parents, base, noise)
}

func (m *Model) define(node string, parents []string, eq equation) error {
	if _, ok := m.eqs[node]; ok {
		return fmt.Errorf("scm: node %q already defined", node)
	}
	if eq.noise == nil {
		eq.noise = NoNoise()
	}
	m.graph.AddNode(node)
	for _, p := range parents {
		if err := m.graph.AddEdge(p, node); err != nil {
			return err
		}
	}
	m.eqs[node] = eq
	return nil
}

// validate checks that every node has an equation (roots may be implicit
// noise-only nodes only if defined with empty parents).
func (m *Model) validate() error {
	for _, n := range m.graph.Nodes() {
		if _, ok := m.eqs[n]; !ok {
			return fmt.Errorf("scm: node %q referenced as a parent but never defined", n)
		}
	}
	return nil
}

// Assignment is one complete joint outcome together with the exogenous noise
// that produced it. Keeping the noise enables counterfactual replay.
type Assignment struct {
	Values map[string]float64
	Noise  map[string]float64
}

// Sample draws one assignment from the observational distribution.
func (m *Model) Sample(r *mathx.RNG) (Assignment, error) {
	if err := m.validate(); err != nil {
		return Assignment{}, err
	}
	vals := make(map[string]float64, len(m.eqs))
	noise := make(map[string]float64, len(m.eqs))
	for _, n := range m.graph.TopologicalOrder() {
		eq := m.eqs[n]
		u := eq.noise(r)
		noise[n] = u
		pa := make(map[string]float64, len(eq.parents))
		for _, p := range eq.parents {
			pa[p] = vals[p]
		}
		vals[n] = eq.base(pa) + u
	}
	return Assignment{Values: vals, Noise: noise}, nil
}

// SampleN draws n assignments and returns them column-wise as a map from
// node name to sample vector.
func (m *Model) SampleN(r *mathx.RNG, n int) (map[string][]float64, error) {
	out := make(map[string][]float64)
	for i := 0; i < n; i++ {
		a, err := m.Sample(r)
		if err != nil {
			return nil, err
		}
		for k, v := range a.Values {
			out[k] = append(out[k], v)
		}
	}
	return out, nil
}

// Counterfactual answers rung-3 queries for additive-noise models via
// abduction–action–prediction:
//
//	abduction:  recover each node's noise from the fully observed factual
//	            assignment;
//	action:     apply the do-intervention;
//	prediction: re-evaluate the mechanisms with the recovered noise.
//
// observed must contain a value for every node in the model.
func (m *Model) Counterfactual(observed map[string]float64, do map[string]float64) (map[string]float64, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	order := m.graph.TopologicalOrder()
	// Abduction.
	noise := make(map[string]float64, len(order))
	for _, n := range order {
		eq := m.eqs[n]
		x, ok := observed[n]
		if !ok {
			return nil, fmt.Errorf("scm: counterfactual requires observed value for %q", n)
		}
		pa := make(map[string]float64, len(eq.parents))
		for _, p := range eq.parents {
			pa[p] = observed[p]
		}
		noise[n] = x - eq.base(pa)
	}
	// Action + prediction.
	vals := make(map[string]float64, len(order))
	for _, n := range order {
		if v, ok := do[n]; ok {
			vals[n] = v
			continue
		}
		eq := m.eqs[n]
		pa := make(map[string]float64, len(eq.parents))
		for _, p := range eq.parents {
			pa[p] = vals[p]
		}
		vals[n] = eq.base(pa) + noise[n]
	}
	return vals, nil
}
