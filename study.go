// Package sisyphus is the public face of the repository: a causal-inference
// toolkit for Internet measurement, reproducing "The Internet as Sisyphus:
// Repeating Measurements, Missing Causes" (HotNets '25).
//
// The central type is Study, which walks the causal protocol the paper's §4
// proposes for measurement campaigns:
//
//  1. state the question and the causal graph (assumptions made explicit);
//  2. identify — find confounders, adjustment sets, instruments, and the
//     colliders that conditioning would open;
//  3. design — see what must be measured or randomized for the effect to be
//     identifiable;
//  4. validate — test the DAG's implied conditional independencies on data;
//  5. estimate — run the matching estimator and report uncertainty.
//
// The heavy lifting lives in the internal packages (internal/causal/... for
// the statistics, internal/netsim/... for the simulated Internet and
// internal/platform for the measurement infrastructure); Study stitches
// them into the workflow a measurement researcher follows.
package sisyphus

import (
	"errors"
	"fmt"
	"strings"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
)

// Study is one causal measurement study in progress.
type Study struct {
	Question  string
	graph     *dag.Graph
	treatment string
	outcome   string
	frame     *data.Frame
}

// NewStudy starts a study for the given question.
func NewStudy(question string) *Study {
	return &Study{Question: question}
}

// WithGraphText parses the causal DAG from the compact text syntax
// ("C -> R; C -> L; R -> L; U [latent]").
func (s *Study) WithGraphText(text string) error {
	g, err := dag.Parse(text)
	if err != nil {
		return err
	}
	s.graph = g
	return nil
}

// WithGraph installs an existing DAG.
func (s *Study) WithGraph(g *dag.Graph) { s.graph = g }

// Graph returns the study's DAG (nil until set).
func (s *Study) Graph() *dag.Graph { return s.graph }

// Effect declares the causal effect of interest.
func (s *Study) Effect(treatment, outcome string) error {
	if s.graph == nil {
		return errors.New("sisyphus: set the causal graph before the effect")
	}
	if !s.graph.Has(treatment) || !s.graph.Has(outcome) {
		return fmt.Errorf("sisyphus: effect (%q → %q) references nodes outside the graph", treatment, outcome)
	}
	s.treatment, s.outcome = treatment, outcome
	return nil
}

// WithData attaches observational data whose columns are named after graph
// nodes.
func (s *Study) WithData(f *data.Frame) { s.frame = f }

// Identification is the output of the identify step: the graph analysis
// dag.Graph.Identify performs for the declared effect.
type Identification = dag.Identification

// Identify runs the graphical analysis for the declared effect.
func (s *Study) Identify() (*Identification, error) {
	if s.graph == nil || s.treatment == "" {
		return nil, errors.New("sisyphus: Identify requires a graph and a declared effect")
	}
	return s.graph.Identify(s.treatment, s.outcome), nil
}

// ValidateImplications tests every conditional independence the DAG implies
// among observed variables against the attached data.
func (s *Study) ValidateImplications() ([]estimate.CITestResult, error) {
	if s.graph == nil {
		return nil, errors.New("sisyphus: no graph")
	}
	if s.frame == nil {
		return nil, errors.New("sisyphus: no data attached")
	}
	var out []estimate.CITestResult
	for _, ci := range s.graph.ImpliedIndependencies() {
		if !s.frame.Has(ci.X) || !s.frame.Has(ci.Y) {
			continue
		}
		ok := true
		for _, g := range ci.Given {
			if !s.frame.Has(g) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		res, err := estimate.CITest(s.frame, ci.X, ci.Y, ci.Given)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// EstimationMethod selects the estimator for EstimateEffect.
type EstimationMethod int

const (
	// Auto picks by the identification strategy.
	Auto EstimationMethod = iota
	// Naive runs the unadjusted contrast (for comparison, not inference).
	Naive
	// BackdoorStratified stratifies on the first minimal adjustment set.
	BackdoorStratified
	// BackdoorRegression adjusts by OLS on the first minimal set.
	BackdoorRegression
	// BackdoorIPW weights by inverse propensity on the first minimal set.
	BackdoorIPW
	// IV2SLS uses the first available instrument.
	IV2SLS
)

// EstimateEffect estimates the declared effect from the attached data.
func (s *Study) EstimateEffect(method EstimationMethod) (estimate.Estimate, error) {
	if s.frame == nil {
		return estimate.Estimate{}, errors.New("sisyphus: no data attached")
	}
	id, err := s.Identify()
	if err != nil {
		return estimate.Estimate{}, err
	}
	switch method {
	case Naive:
		return estimate.NaiveAssociation(s.frame, s.treatment, s.outcome)
	case BackdoorStratified:
		set, err := s.adjustmentSet(id)
		if err != nil {
			return estimate.Estimate{}, err
		}
		return estimate.Stratified(s.frame, s.treatment, s.outcome, set, 10)
	case BackdoorRegression:
		set, err := s.adjustmentSet(id)
		if err != nil {
			return estimate.Estimate{}, err
		}
		return estimate.Regression(s.frame, s.treatment, s.outcome, set)
	case BackdoorIPW:
		set, err := s.adjustmentSet(id)
		if err != nil {
			return estimate.Estimate{}, err
		}
		return estimate.IPW(s.frame, s.treatment, s.outcome, set, 0.01)
	case IV2SLS:
		if len(id.Instruments) == 0 {
			return estimate.Estimate{}, errors.New("sisyphus: no valid instrument in the graph")
		}
		res, err := estimate.TwoSLS(s.frame, s.treatment, s.outcome, id.Instruments[:1], nil)
		if err != nil {
			return estimate.Estimate{}, err
		}
		return res.Estimate, nil
	case Auto:
		switch {
		case len(id.AdjustmentSets) > 0:
			return s.EstimateEffect(BackdoorRegression)
		case len(id.Instruments) > 0:
			return s.EstimateEffect(IV2SLS)
		default:
			return estimate.Estimate{}, errors.New("sisyphus: effect is not identifiable from this data; " + id.Strategy)
		}
	default:
		return estimate.Estimate{}, fmt.Errorf("sisyphus: unknown estimation method %d", method)
	}
}

// adjustmentSet picks the set the backdoor estimators condition on: the
// first minimal adjustment set the attached data has every column of, as
// POST /query picks among its measured columns.
func (s *Study) adjustmentSet(id *Identification) ([]string, error) {
	if len(id.AdjustmentSets) == 0 {
		return nil, errors.New("sisyphus: no observed backdoor adjustment set exists")
	}
	set, ok := id.MeasuredAdjustmentSet(s.frame.Has)
	if !ok {
		return nil, fmt.Errorf("sisyphus: every minimal adjustment set %v has a variable with no data column", id.AdjustmentSets)
	}
	return set, nil
}

// Report renders the full causal-protocol report: question, assumptions,
// identification, validation (if data attached), and — when possible — the
// estimate.
func (s *Study) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Causal study: %s\n", s.Question)
	if s.graph == nil {
		sb.WriteString("  (no causal graph declared)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "\nAssumed graph:\n")
	for _, e := range s.graph.Edges() {
		fmt.Fprintf(&sb, "  %s -> %s\n", e[0], e[1])
	}
	for _, n := range s.graph.Nodes() {
		if s.graph.IsLatent(n) {
			fmt.Fprintf(&sb, "  %s [latent]\n", n)
		}
	}
	if s.treatment == "" {
		sb.WriteString("\n(no effect declared)\n")
		return sb.String()
	}
	id, err := s.Identify()
	if err != nil {
		fmt.Fprintf(&sb, "\nidentification error: %v\n", err)
		return sb.String()
	}
	fmt.Fprintf(&sb, "\nEffect of interest: %s → %s\n", id.Treatment, id.Outcome)
	fmt.Fprintf(&sb, "Backdoor paths: %v\n", id.BackdoorPaths)
	fmt.Fprintf(&sb, "Observed confounders: %v\n", id.Confounders)
	fmt.Fprintf(&sb, "Minimal adjustment sets: %v\n", id.AdjustmentSets)
	fmt.Fprintf(&sb, "Instruments: %v\n", id.Instruments)
	if len(id.FrontdoorMediators) > 0 {
		fmt.Fprintf(&sb, "Frontdoor mediators: %v\n", id.FrontdoorMediators)
	}
	for _, w := range id.ColliderWarnings {
		fmt.Fprintf(&sb, "WARNING: %s\n", w)
	}
	fmt.Fprintf(&sb, "Strategy: %s\n", id.Strategy)

	if s.frame != nil {
		if checks, err := s.ValidateImplications(); err == nil && len(checks) > 0 {
			sb.WriteString("\nTestable implications vs data:\n")
			for _, c := range checks {
				fmt.Fprintf(&sb, "  %s\n", c)
			}
		}
		if est, err := s.EstimateEffect(Auto); err == nil {
			lo, hi := est.CI(0.95)
			fmt.Fprintf(&sb, "\nEstimate (%s): %.4f  [95%% CI %.4f, %.4f]  p=%.4f  n=%d\n",
				est.Method, est.Effect, lo, hi, est.PValue(), est.N)
		} else {
			fmt.Fprintf(&sb, "\nEstimate unavailable: %v\n", err)
		}
	}
	return sb.String()
}
