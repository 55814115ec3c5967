// Package sensitivity quantifies how fragile a causal conclusion is to
// violations of its assumptions — the "report uncertainty in causal
// estimates" step of the paper's §4 protocol. It implements:
//
//   - E-values (VanderWeele & Ding): the minimum strength of association an
//     unmeasured confounder would need with both treatment and outcome to
//     explain away an observed effect; and
//   - placebo-treatment, random-common-cause and data-subset refuters for
//     estimator outputs.
package sensitivity

import (
	"errors"
	"fmt"
	"math"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
)

// EValue computes the E-value for an observed risk ratio rr (> 0). For
// rr < 1 the reciprocal is used, per convention. The E-value is the minimum
// strength (on the risk-ratio scale) that an unmeasured confounder would
// need with both treatment and outcome, above and beyond the measured
// covariates, to fully explain away the association.
func EValue(rr float64) (float64, error) {
	if rr <= 0 || math.IsNaN(rr) {
		return 0, fmt.Errorf("sensitivity: risk ratio must be positive, got %v", rr)
	}
	if rr < 1 {
		rr = 1 / rr
	}
	return rr + math.Sqrt(rr*(rr-1)), nil
}

// EValueFromEstimate converts a mean-difference Estimate on outcome scale sd
// into an approximate risk ratio via the standard conversion
// RR ≈ exp(0.91 · d) with d the standardized mean difference, then returns
// the E-values for the point estimate and for the CI bound closer to the
// null. A CI E-value of 1 means the interval already covers the null.
func EValueFromEstimate(e estimate.Estimate, outcomeSD float64) (point, ci float64, err error) {
	if outcomeSD <= 0 {
		return 0, 0, errors.New("sensitivity: outcome SD must be positive")
	}
	d := e.Effect / outcomeSD
	rr := math.Exp(0.91 * d)
	point, err = EValue(rr)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := e.CI(0.95)
	loRR := math.Exp(0.91 * lo / outcomeSD)
	hiRR := math.Exp(0.91 * hi / outcomeSD)
	// The CI bound closer to the null on the RR scale.
	if loRR <= 1 && hiRR >= 1 {
		return point, 1, nil
	}
	bound := loRR
	if math.Abs(math.Log(hiRR)) < math.Abs(math.Log(loRR)) {
		bound = hiRR
	}
	ci, err = EValue(bound)
	return point, ci, err
}

// Refutation is the outcome of a refuter run.
type Refutation struct {
	Name string
	// Original is the estimate under scrutiny; Refuted the re-estimate.
	Original, Refuted float64
	// Passed is true when the refutation behaves as a sound estimate
	// should (see each refuter for its criterion).
	Passed bool
	Detail string
}

func (r Refutation) String() string {
	verdict := "FAILED"
	if r.Passed {
		verdict = "passed"
	}
	return fmt.Sprintf("%s: original=%.4f refuted=%.4f (%s) %s", r.Name, r.Original, r.Refuted, verdict, r.Detail)
}

// Estimator is the signature refuters re-run: any function from a frame to
// an effect estimate.
type Estimator func(f *data.Frame) (estimate.Estimate, error)

// PlaceboTreatment re-runs the estimator with the treatment column replaced
// by an independently shuffled copy. A sound analysis should then find an
// effect near zero: if it does not, the pipeline is reading effect out of
// structure rather than out of treatment (the DoWhy placebo refuter).
func PlaceboTreatment(f *data.Frame, treatment string, est Estimator, r *mathx.RNG, reps int) (Refutation, error) {
	if reps <= 0 {
		reps = 20
	}
	orig, err := est(f)
	if err != nil {
		return Refutation{}, err
	}
	tr, ok := f.Column(treatment)
	if !ok {
		return Refutation{}, fmt.Errorf("sensitivity: no treatment column %q", treatment)
	}
	var effects []float64
	for rep := 0; rep < reps; rep++ {
		shuffled := make([]float64, len(tr))
		for i, j := range r.Perm(len(tr)) {
			shuffled[i] = tr[j]
		}
		g := data.New()
		for _, name := range f.Columns() {
			col := f.MustColumn(name)
			if name == treatment {
				col = shuffled
			}
			if err := g.AddColumn(name, col); err != nil {
				return Refutation{}, err
			}
		}
		e, err := est(g)
		if err != nil {
			return Refutation{}, err
		}
		effects = append(effects, e.Effect)
	}
	s := mathx.Summarize(effects)
	// Pass if the placebo distribution is centred near zero relative to
	// the original effect size.
	passed := math.Abs(s.Mean) < math.Abs(orig.Effect)/4+2*s.Std
	return Refutation{
		Name: "placebo-treatment", Original: orig.Effect, Refuted: s.Mean,
		Passed: passed,
		Detail: fmt.Sprintf("placebo sd=%.4f over %d reps", s.Std, reps),
	}, nil
}

// RandomCommonCause adds a synthetic random covariate to the adjustment and
// re-estimates: a sound estimate should barely move.
func RandomCommonCause(f *data.Frame, est func(f *data.Frame, extra string) (estimate.Estimate, error), r *mathx.RNG) (Refutation, error) {
	base, err := est(f, "")
	if err != nil {
		return Refutation{}, err
	}
	noise := make([]float64, f.Len())
	for i := range noise {
		noise[i] = r.Normal(0, 1)
	}
	g := data.New()
	for _, name := range f.Columns() {
		if err := g.AddColumn(name, f.MustColumn(name)); err != nil {
			return Refutation{}, err
		}
	}
	if err := g.AddColumn("__random__", noise); err != nil {
		return Refutation{}, err
	}
	re, err := est(g, "__random__")
	if err != nil {
		return Refutation{}, err
	}
	shift := math.Abs(re.Effect - base.Effect)
	tol := math.Abs(base.Effect)*0.15 + 3*base.SE
	return Refutation{
		Name: "random-common-cause", Original: base.Effect, Refuted: re.Effect,
		Passed: shift < tol,
		Detail: fmt.Sprintf("shift=%.4f tolerance=%.4f", shift, tol),
	}, nil
}

// DataSubset re-estimates on random half-samples; a stable estimate should
// reproduce within sampling noise.
func DataSubset(f *data.Frame, est Estimator, r *mathx.RNG, reps int) (Refutation, error) {
	if reps <= 0 {
		reps = 10
	}
	orig, err := est(f)
	if err != nil {
		return Refutation{}, err
	}
	n := f.Len()
	var effects []float64
	for rep := 0; rep < reps; rep++ {
		perm := r.Perm(n)
		keep := make(map[int]bool, n/2)
		for _, i := range perm[:n/2] {
			keep[i] = true
		}
		idx := 0
		g := f.Filter(func(map[string]float64) bool {
			ok := keep[idx]
			idx++
			return ok
		})
		e, err := est(g)
		if err != nil {
			return Refutation{}, err
		}
		effects = append(effects, e.Effect)
	}
	s := mathx.Summarize(effects)
	passed := math.Abs(s.Mean-orig.Effect) < math.Abs(orig.Effect)*0.25+3*s.StandardError+3*orig.SE
	return Refutation{
		Name: "data-subset", Original: orig.Effect, Refuted: s.Mean,
		Passed: passed,
		Detail: fmt.Sprintf("subset sd=%.4f over %d half-samples", s.Std, reps),
	}, nil
}
