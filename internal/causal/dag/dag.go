// Package dag implements causal directed acyclic graphs and the graphical
// identification machinery the paper calls for in §3–§4: d-separation,
// backdoor and frontdoor criteria, minimal adjustment sets, instrumental
// variable discovery, collider enumeration, and testable implications.
//
// It plays the role that Dagitty/DoWhy play in other domains ([48], [43] in
// the paper): a planning tool used *before* measurement to decide which
// effects are identifiable and what has to be observed or randomized.
package dag

import (
	"fmt"
	"sort"
)

// Node is a variable in a causal graph.
type Node struct {
	Name string
	// Latent marks variables that exist in the causal story but cannot be
	// measured (e.g. "business policy"). Latent nodes are excluded from
	// adjustment sets and instrument candidates.
	Latent bool
}

// Graph is a causal DAG. The zero value is not usable; call New.
// Graph maintains the acyclicity invariant: AddEdge rejects edges that would
// create a cycle, so any Graph reachable through the public API is a DAG.
type Graph struct {
	nodes    map[string]*Node
	order    []string // insertion order, for deterministic iteration
	parents  map[string]map[string]bool
	children map[string]map[string]bool
}

// New returns an empty causal graph.
func New() *Graph {
	return &Graph{
		nodes:    make(map[string]*Node),
		parents:  make(map[string]map[string]bool),
		children: make(map[string]map[string]bool),
	}
}

// AddNode adds a named observed variable. Adding an existing name is a no-op
// that preserves its current latency flag.
func (g *Graph) AddNode(name string) {
	if _, ok := g.nodes[name]; ok {
		return
	}
	g.nodes[name] = &Node{Name: name}
	g.order = append(g.order, name)
	g.parents[name] = make(map[string]bool)
	g.children[name] = make(map[string]bool)
}

// SetLatent marks name as unobservable. The node is created if absent.
func (g *Graph) SetLatent(name string, latent bool) {
	g.AddNode(name)
	g.nodes[name].Latent = latent
}

// IsLatent reports whether name is marked latent. Unknown names are not latent.
func (g *Graph) IsLatent(name string) bool {
	n, ok := g.nodes[name]
	return ok && n.Latent
}

// Has reports whether the graph contains the named node.
func (g *Graph) Has(name string) bool {
	_, ok := g.nodes[name]
	return ok
}

// Nodes returns all node names in insertion order.
func (g *Graph) Nodes() []string {
	return append([]string(nil), g.order...)
}

// ObservedNodes returns the names of all non-latent nodes in insertion order.
func (g *Graph) ObservedNodes() []string {
	var out []string
	for _, n := range g.order {
		if !g.nodes[n].Latent {
			out = append(out, n)
		}
	}
	return out
}

// AddEdge adds the causal edge from → to, creating missing nodes. It returns
// an error if the edge would create a cycle or a self-loop.
func (g *Graph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("dag: self-loop on %q", from)
	}
	g.AddNode(from)
	g.AddNode(to)
	if g.parents[to][from] {
		return nil // already present
	}
	// A cycle would exist iff `from` is currently reachable from `to`.
	if g.reaches(to, from) {
		return fmt.Errorf("dag: edge %s -> %s would create a cycle", from, to)
	}
	g.parents[to][from] = true
	g.children[from][to] = true
	return nil
}

// RemoveEdge deletes the edge from → to if present.
func (g *Graph) RemoveEdge(from, to string) {
	if g.parents[to] != nil {
		delete(g.parents[to], from)
	}
	if g.children[from] != nil {
		delete(g.children[from], to)
	}
}

// HasEdge reports whether the edge from → to exists.
func (g *Graph) HasEdge(from, to string) bool {
	return g.parents[to] != nil && g.parents[to][from]
}

// Parents returns the sorted parent names of name.
func (g *Graph) Parents(name string) []string { return sortedKeys(g.parents[name]) }

// Children returns the sorted child names of name.
func (g *Graph) Children(name string) []string { return sortedKeys(g.children[name]) }

// Edges returns all edges as [from, to] pairs in deterministic order.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for _, from := range g.order {
		for _, to := range sortedKeys(g.children[from]) {
			out = append(out, [2]string{from, to})
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New()
	for _, n := range g.order {
		out.AddNode(n)
		out.nodes[n].Latent = g.nodes[n].Latent
	}
	for _, e := range g.Edges() {
		out.parents[e[1]][e[0]] = true
		out.children[e[0]][e[1]] = true
	}
	return out
}

// reaches reports whether there is a directed path from a to b.
func (g *Graph) reaches(a, b string) bool {
	if a == b {
		return true
	}
	seen := map[string]bool{a: true}
	stack := []string{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range g.children[n] {
			if c == b {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// Descendants returns the set of strict descendants of name, sorted.
func (g *Graph) Descendants(name string) []string {
	seen := make(map[string]bool)
	stack := []string{name}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range g.children[n] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return sortedKeys(seen)
}

// ancestorSet returns the ancestors of every node in start. If inclusive,
// the start nodes themselves are included.
func (g *Graph) ancestorSet(start map[string]bool, inclusive bool) map[string]bool {
	seen := make(map[string]bool)
	var stack []string
	for n := range start {
		if inclusive {
			seen[n] = true
		}
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := range g.parents[n] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// TopologicalOrder returns the node names in a topological order (parents
// before children), ties broken by insertion order.
func (g *Graph) TopologicalOrder() []string {
	indeg := make(map[string]int, len(g.order))
	for _, n := range g.order {
		indeg[n] = len(g.parents[n])
	}
	var queue []string
	for _, n := range g.order {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	var out []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, c := range sortedKeys(g.children[n]) {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// MarkovBlanket returns the Markov blanket of a node: its parents, its
// children, and its children's other parents. Conditioning on the blanket
// renders the node independent of everything else in the graph — the
// minimal sufficient covariate set for predicting it.
func (g *Graph) MarkovBlanket(name string) []string {
	blanket := make(map[string]bool)
	for p := range g.parents[name] {
		blanket[p] = true
	}
	for c := range g.children[name] {
		blanket[c] = true
		for cp := range g.parents[c] {
			if cp != name {
				blanket[cp] = true
			}
		}
	}
	return sortedKeys(blanket)
}
