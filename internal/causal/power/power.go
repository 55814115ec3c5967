// Package power answers the §4 design question *before* a measurement
// campaign runs: given a planned synthetic-control study — so many donors,
// so many pre/post periods, so much per-bin noise — what effect sizes can
// the placebo test actually detect? It simulates the estimator on synthetic
// factor-model panels and reports detection power, and can invert the curve
// to the minimum detectable effect.
//
// This is the quantitative half of the paper's claim that "the value of a
// measurement lies in whether it helps resolve causal ambiguity": a design
// with power 0.2 for the effects one cares about will produce Table-1-style
// "not significant" rows no matter how carefully it is analyzed.
package power

import (
	"context"
	"fmt"
	"math"

	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/mathx"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// SCDesign describes a planned synthetic-control study.
type SCDesign struct {
	// Donors is the donor-pool size (min p-value = 1/(Donors+1)).
	Donors int
	// PrePeriods and PostPeriods are panel lengths in bins.
	PrePeriods, PostPeriods int
	// UnitNoise is the idiosyncratic per-bin noise (same units as the
	// outcome, e.g. ms of median RTT).
	UnitNoise float64
	// FactorScale scales the shared latent factors (common trends donors
	// absorb); default 20.
	FactorScale float64
	// Method selects the estimator; default Robust.
	Method synthetic.Method
}

func (d SCDesign) withDefaults() (SCDesign, error) {
	if d.Donors < 2 {
		return d, fmt.Errorf("power: need at least 2 donors, have %d", d.Donors)
	}
	if d.PrePeriods < 4 || d.PostPeriods < 1 {
		return d, fmt.Errorf("power: need >= 4 pre and >= 1 post periods")
	}
	if d.UnitNoise < 0 {
		return d, fmt.Errorf("power: negative noise")
	}
	if d.FactorScale <= 0 {
		d.FactorScale = 20
	}
	return d, nil
}

// panel draws one synthetic factor-model panel under the design, with no
// treatment effect: unit "u0" is the treated unit, inside the donor hull.
func (d SCDesign) panel(r *mathx.RNG) (*synthetic.Panel, error) {
	nUnits := d.Donors + 1
	nTimes := d.PrePeriods + d.PostPeriods
	const nFactors = 3

	loads := mathx.NewMatrix(nUnits, nFactors)
	for i := range loads.Data {
		loads.Data[i] = 0.5 + r.Float64()
	}
	// Treated unit inside the donor hull.
	w := make([]float64, d.Donors)
	var wsum float64
	for i := range w {
		w[i] = r.Float64()
		wsum += w[i]
	}
	for k := 0; k < nFactors; k++ {
		var v float64
		for i := 1; i < nUnits; i++ {
			v += w[i-1] / wsum * loads.At(i, k)
		}
		loads.Set(0, k, v)
	}
	factors := mathx.NewMatrix(nFactors, nTimes)
	for k := 0; k < nFactors; k++ {
		level := d.FactorScale * (1 + 0.3*r.Float64())
		for t := 0; t < nTimes; t++ {
			factors.Set(k, t, level+0.15*d.FactorScale*math.Sin(float64(t)/4+float64(k))+r.Normal(0, 0.02*d.FactorScale))
		}
	}
	y := loads.Mul(factors)
	for i := range y.Data {
		y.Data[i] += r.Normal(0, d.UnitNoise)
	}
	units := make([]string, nUnits)
	for i := range units {
		units[i] = fmt.Sprintf("u%d", i)
	}
	times := make([]float64, nTimes)
	for t := range times {
		times[t] = float64(t)
	}
	return synthetic.NewPanel(units, times, y)
}

// simulate draws one panel, runs the placebo test on it once, and returns
// the p-value the test reports at each of effects. Scoring an effect shifts
// the treated unit's post-period outcomes (PlaceboResult.PValueShifted),
// which gives bit for bit the p-value of a panel drawn with that effect
// added: the effect enters after every RNG draw and touches neither the
// treated unit's pre-period weights nor the placebo fits. Each simulated
// trial is one shard of the pool already; its inner placebo test runs
// sequentially (width 1) so nested fan-out cannot oversubscribe the pool.
func (d SCDesign) simulate(ctx context.Context, r *mathx.RNG, effects []float64) ([]float64, error) {
	panel, err := d.panel(r)
	if err != nil {
		return nil, err
	}
	pl, err := synthetic.PlaceboTest(ctx, panel, "u0", d.PrePeriods,
		synthetic.Config{Method: d.Method, Pool: parallel.NewPool(1)})
	if err != nil {
		return nil, err
	}
	pvals := make([]float64, len(effects))
	for k, eff := range effects {
		pvals[k] = pl.PValueShifted(eff)
	}
	return pvals, nil
}

// Power estimates, for each of effects, the probability that the placebo
// test detects that effect at level alpha, over `trials` simulated panels.
// Every effect is scored on the same panels from one set of placebo fits
// per trial, so a whole power curve costs what one point does; the result
// is bit-identical to calling Power once per effect with the same seed.
// Trials shard across pool; cancelling ctx stops scheduling further trials
// and returns ctx.Err().
func (d SCDesign) Power(ctx context.Context, pool parallel.Pool, effects []float64, alpha float64, trials int, seed uint64) ([]float64, error) {
	dd, err := d.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(effects) == 0 {
		return nil, fmt.Errorf("power: no effects to score")
	}
	if trials <= 0 {
		trials = 100
	}
	// One pre-split RNG stream per trial, in trial order, then the trials
	// shard across the worker pool. Pre-splitting consumes the parent
	// stream exactly as the old sequential split-in-loop did, so power
	// numbers are unchanged AND identical for any worker count.
	r := mathx.NewRNG(seed)
	rngs := make([]*mathx.RNG, trials)
	for i := range rngs {
		rngs[i] = r.Split()
	}
	pvals, err := parallel.Map(ctx, pool, trials, func(i int) ([]float64, error) {
		return dd.simulate(ctx, rngs[i], effects)
	})
	if err != nil {
		return nil, err
	}
	pw := make([]float64, len(effects))
	for k := range effects {
		detected := 0
		for _, p := range pvals {
			if p[k] <= alpha {
				detected++
			}
		}
		pw[k] = float64(detected) / float64(trials)
	}
	// Monte-Carlo shard accounting (no-op without a recorder on ctx).
	obs.Add(ctx, "power.trials", int64(trials))
	return pw, nil
}

// MinDetectableEffect bisects the effect size until Power ≈ target at level
// alpha, searching in (0, maxEffect]. Returns the smallest effect with at
// least the target power (to bisection tolerance).
func (d SCDesign) MinDetectableEffect(ctx context.Context, pool parallel.Pool, alpha, target, maxEffect float64, trials int, seed uint64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("power: target must be in (0,1)")
	}
	hiPow, err := d.Power(ctx, pool, []float64{maxEffect}, alpha, trials, seed)
	if err != nil {
		return 0, err
	}
	if hiPow[0] < target {
		return 0, fmt.Errorf("power: even effect %v only reaches power %.2f < %.2f", maxEffect, hiPow[0], target)
	}
	lo, hi := 0.0, maxEffect
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		p, err := d.Power(ctx, pool, []float64{mid}, alpha, trials, seed+uint64(iter)+1)
		if err != nil {
			return 0, err
		}
		if p[0] >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
