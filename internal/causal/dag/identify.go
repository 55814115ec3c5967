package dag

import (
	"fmt"
	"slices"
)

// Identification is the graphical analysis of one effect x → y: everything
// the §4 protocol asks a study to establish before it measures anything.
type Identification struct {
	Treatment, Outcome string
	// BackdoorPaths are the confounding routes that must be blocked.
	BackdoorPaths []string
	// Confounders are observed variables on backdoor paths.
	Confounders []string
	// AdjustmentSets are the minimal observed backdoor adjustment sets
	// (empty inner set = no adjustment needed). Nil when not identifiable
	// by observed adjustment.
	AdjustmentSets [][]string
	// BackdoorFailure says why AdjustmentSets is nil ("" otherwise).
	BackdoorFailure string
	// Instruments lists valid observed instrumental variables.
	Instruments []string
	// FrontdoorMediators lists the single observed nodes that each satisfy
	// the frontdoor criterion.
	FrontdoorMediators []string
	// ColliderWarnings are colliders that conditioning on common selection
	// variables (any descendant of both treatment and outcome) would open.
	ColliderWarnings []string
	// Identifiable reports whether any strategy above applies.
	Identifiable bool
	// Strategy is the recommended estimation approach.
	Strategy string
}

// Identify runs the full graphical analysis for the effect of x on y.
func (g *Graph) Identify(x, y string) *Identification {
	id := &Identification{Treatment: x, Outcome: y}
	paths := g.BackdoorPaths(x, y)
	id.BackdoorPaths = make([]string, len(paths))
	for i, p := range paths {
		id.BackdoorPaths[i] = p.String()
	}
	id.Confounders = g.Confounders(x, y)
	if sets, err := g.MinimalAdjustmentSets(x, y); err == nil {
		id.AdjustmentSets = sets
	} else {
		id.BackdoorFailure = err.Error()
	}
	id.Instruments = g.Instruments(x, y)
	for _, m := range g.ObservedNodes() {
		if m != x && m != y && g.SatisfiesFrontdoor(x, y, []string{m}) {
			id.FrontdoorMediators = append(id.FrontdoorMediators, m)
		}
	}
	// Collider warnings: conditioning (selecting) on any common descendant
	// of treatment and outcome — e.g. "a speed test ran" — biases the
	// estimate even when the two are directly related, because it mixes a
	// non-causal selection component into the observed association.
	xDesc := toSet(g.Descendants(x))
	for _, d := range g.Descendants(y) {
		if xDesc[d] {
			id.ColliderWarnings = append(id.ColliderWarnings,
				fmt.Sprintf("conditioning on %q (a descendant of both %s and %s) induces selection bias", d, x, y))
		}
	}

	switch {
	case len(id.AdjustmentSets) > 0 && len(id.AdjustmentSets[0]) == 0:
		id.Identifiable = true
		id.Strategy = "no confounding: a simple contrast identifies the effect"
	case len(id.AdjustmentSets) > 0:
		id.Identifiable = true
		id.Strategy = fmt.Sprintf("backdoor adjustment for %v", id.AdjustmentSets[0])
	case len(id.Instruments) > 0:
		id.Identifiable = true
		id.Strategy = fmt.Sprintf("instrumental variable via %v (2SLS)", id.Instruments)
	case len(id.FrontdoorMediators) > 0:
		id.Identifiable = true
		id.Strategy = fmt.Sprintf("frontdoor adjustment through %v", id.FrontdoorMediators)
	default:
		id.Strategy = "not identifiable from observational data: design an intervention (randomize, or use a platform knob)"
	}
	return id
}

// MeasuredAdjustmentSet returns the first minimal adjustment set — the
// smallest, lexicographically earliest — whose every member is measured,
// and false when no set is. Identification proposes sets over graph nodes;
// an estimator can only condition on the nodes the data has columns for.
func (id *Identification) MeasuredAdjustmentSet(measured func(string) bool) ([]string, bool) {
	for _, set := range id.AdjustmentSets {
		if slices.IndexFunc(set, func(v string) bool { return !measured(v) }) < 0 {
			return set, true
		}
	}
	return nil, false
}
