package sisyphus

import (
	"errors"
	"fmt"
	"strings"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/discover"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/causal/sensitivity"
	"sisyphus/internal/mathx"
)

// Refute runs the standard refutation battery against the study's Auto
// estimate: placebo treatment, random common cause, and data-subset
// stability. A sound analysis passes all three; failures localize what is
// broken (pipeline leakage, fragile adjustment, instability).
func (s *Study) Refute(seed uint64) ([]sensitivity.Refutation, error) {
	if s.frame == nil {
		return nil, errors.New("sisyphus: no data attached")
	}
	id, err := s.Identify()
	if err != nil {
		return nil, err
	}
	if len(id.AdjustmentSets) == 0 {
		return nil, errors.New("sisyphus: refuters currently require a backdoor-identifiable effect")
	}
	adjust, err := s.adjustmentSet(id)
	if err != nil {
		return nil, err
	}
	est := func(f *data.Frame) (estimate.Estimate, error) {
		return estimate.Regression(f, s.treatment, s.outcome, adjust)
	}
	r := mathx.NewRNG(seed)
	var out []sensitivity.Refutation

	placebo, err := sensitivity.PlaceboTreatment(s.frame, s.treatment, est, r.Split(), 15)
	if err != nil {
		return nil, err
	}
	out = append(out, placebo)

	rcc, err := sensitivity.RandomCommonCause(s.frame, func(f *data.Frame, extra string) (estimate.Estimate, error) {
		a := adjust
		if extra != "" {
			a = append(append([]string(nil), adjust...), extra)
		}
		return estimate.Regression(f, s.treatment, s.outcome, a)
	}, r.Split())
	if err != nil {
		return nil, err
	}
	out = append(out, rcc)

	subset, err := sensitivity.DataSubset(s.frame, est, r.Split(), 10)
	if err != nil {
		return nil, err
	}
	out = append(out, subset)
	return out, nil
}

// SensitivityReport computes the E-value analysis for the study's Auto
// estimate: how strong an *unmeasured* confounder would have to be to
// explain the effect away — the paper's demanded honesty about what the
// adjustment could have missed.
func (s *Study) SensitivityReport() (string, error) {
	est, err := s.EstimateEffect(Auto)
	if err != nil {
		return "", err
	}
	outcome, ok := s.frame.Column(s.outcome)
	if !ok {
		return "", fmt.Errorf("sisyphus: no outcome column %q", s.outcome)
	}
	sd := mathx.Summarize(outcome).Std
	point, ci, err := sensitivity.EValueFromEstimate(est, sd)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "estimate: %.4f (SE %.4f)\n", est.Effect, est.SE)
	fmt.Fprintf(&sb, "E-value (point):   %.2f\n", point)
	fmt.Fprintf(&sb, "E-value (CI edge): %.2f\n", ci)
	sb.WriteString("interpretation: an unmeasured confounder would need at least this\n")
	sb.WriteString("risk-ratio association with BOTH treatment and outcome, beyond the\n")
	sb.WriteString("measured covariates, to fully explain the estimate away.\n")
	return sb.String(), nil
}

// StructureCheck runs PC discovery on the attached data (over the graph's
// observed nodes present as columns) and compares the result with the
// assumed DAG, returning the comparison and the discovered equivalence
// class. Missing adjacencies mean the assumed edge finds no support in the
// data; extra adjacencies mean the data contain dependence the assumed
// graph does not explain (often a latent confounder).
func (s *Study) StructureCheck() (discover.CompareResult, *discover.PDAG, error) {
	if s.graph == nil {
		return discover.CompareResult{}, nil, errors.New("sisyphus: no graph")
	}
	if s.frame == nil {
		return discover.CompareResult{}, nil, errors.New("sisyphus: no data attached")
	}
	var cols []string
	for _, n := range s.graph.ObservedNodes() {
		if s.frame.Has(n) {
			cols = append(cols, n)
		}
	}
	if len(cols) < 2 {
		return discover.CompareResult{}, nil, errors.New("sisyphus: fewer than two graph nodes present in the data")
	}
	p, err := discover.PC(s.frame, cols, discover.Config{})
	if err != nil {
		return discover.CompareResult{}, nil, err
	}
	return discover.Compare(p, s.graph), p, nil
}
