package dag

// Instruments returns the observed variables that qualify as instrumental
// variables for estimating the effect of x on y:
//
//  1. relevance: the candidate is d-connected to x; and
//  2. exclusion: the candidate is d-separated from y in the graph with every
//     edge leaving x removed (all of its influence on y flows through x).
//
// This is the classical (unconditional) IV definition the paper invokes for
// natural experiments: "a factor that influences the decision being studied
// and affects the outcome only through that decision".
func (g *Graph) Instruments(x, y string) []string {
	cut := g.Clone()
	for _, c := range g.Children(x) {
		cut.RemoveEdge(x, c)
	}
	var out []string
	for _, z := range g.ObservedNodes() {
		if z == x || z == y {
			continue
		}
		if !g.DConnected(z, x, nil) {
			continue // irrelevant: no first stage
		}
		if !cut.DSeparated(z, y, nil) {
			continue // exclusion restriction violated
		}
		out = append(out, z)
	}
	return out
}

// ExclusionViolations explains why candidate z fails the exclusion
// restriction for x → y: it returns the active paths from z to y that do not
// pass through x (computed in the graph with x's outgoing edges removed).
// An empty result means the exclusion restriction holds. This implements the
// paper's demand that instrument validity "hinges on the strength of the
// justification" — the violations are the argument one must rebut.
func (g *Graph) ExclusionViolations(z, x, y string) []Path {
	cut := g.Clone()
	for _, c := range g.Children(x) {
		cut.RemoveEdge(x, c)
	}
	return cut.ActivePaths(z, y, nil)
}

// Collider describes a collider structure a → b ← c.
type Collider struct {
	Left, Mid, Right string
}

// Colliders enumerates every collider triple in the graph in deterministic
// order. Conditioning on Mid (or a descendant of Mid) opens a spurious
// association between Left and Right — the speed-test selection bias of §3.
func (g *Graph) Colliders() []Collider {
	var out []Collider
	for _, mid := range g.order {
		ps := g.Parents(mid)
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				out = append(out, Collider{Left: ps[i], Mid: mid, Right: ps[j]})
			}
		}
	}
	return out
}

// SelectionBiasWarnings returns the colliders that are opened by
// conditioning on the given set: colliders whose middle node (or one of its
// descendants) is in the set and whose endpoints were not already adjacent.
// Analyzing only records where such a variable is "true" (e.g. "a speed test
// was run") induces exactly these spurious associations.
func (g *Graph) SelectionBiasWarnings(conditioned []string) []Collider {
	z := toSet(conditioned)
	var out []Collider
	for _, c := range g.Colliders() {
		opened := z[c.Mid] || g.anyDescendantIn(c.Mid, z)
		if !opened {
			continue
		}
		if g.HasEdge(c.Left, c.Right) || g.HasEdge(c.Right, c.Left) {
			continue // endpoints already directly related; the warning is moot
		}
		out = append(out, c)
	}
	return out
}
