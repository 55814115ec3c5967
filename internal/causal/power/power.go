// Package power answers the §4 design question *before* a measurement
// campaign runs: given a planned synthetic-control study — so many donors,
// so many pre/post periods, so much per-bin noise — what effect sizes can
// the placebo test actually detect? It simulates the estimator on synthetic
// factor-model panels once, and reads both detection power at any effect
// and the minimum detectable effect off those same simulated trials.
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

// Curve is a simulated power analysis of one design at one level alpha:
// the placebo test of every simulated trial's panel. Every question it
// answers — power at an effect, the minimum detectable effect — is scored
// on the same panels from those tests (PlaceboResult.PValueShifted), so
// answers are common-random-number comparisons and cost no further fits.
// A Curve is never written after SCDesign.Curve returns.
type Curve struct {
	alpha float64
	tests []*synthetic.PlaceboResult
}

// Curve simulates `trials` panels under the design and runs one placebo
// test on each. Trials shard across pool, each on its own RNG stream split
// from seed in trial order, so the curve is identical at any worker count;
// a trial's inner placebo test runs sequentially (width 1) so nested
// fan-out cannot oversubscribe the pool. Cancelling ctx stops scheduling
// further trials and returns ctx.Err().
func (d SCDesign) Curve(ctx context.Context, pool parallel.Pool, alpha float64, trials int, seed uint64) (*Curve, error) {
	dd, err := d.withDefaults()
	if err != nil {
		return nil, err
	}
	if trials <= 0 {
		return nil, fmt.Errorf("power: need at least 1 trial, have %d", trials)
	}
	r := mathx.NewRNG(seed)
	rngs := make([]*mathx.RNG, trials)
	for i := range rngs {
		rngs[i] = r.Split()
	}
	tests, err := parallel.Map(ctx, pool, trials, func(i int) (*synthetic.PlaceboResult, error) {
		panel, err := dd.panel(rngs[i])
		if err != nil {
			return nil, err
		}
		return synthetic.PlaceboTest(ctx, panel, "u0", dd.PrePeriods,
			synthetic.Config{Method: dd.Method, Pool: parallel.NewPool(1)})
	})
	if err != nil {
		return nil, err
	}
	// Monte-Carlo shard accounting (no-op without a recorder on ctx).
	obs.Add(ctx, "power.trials", int64(trials))
	return &Curve{alpha: alpha, tests: tests}, nil
}

// Power is the fraction of the curve's trials whose placebo test detects
// effect at level alpha. Scoring an effect shifts each treated unit's
// post-period outcomes, which gives bit for bit the p-value of a panel
// drawn with that effect added: the effect enters after every RNG draw and
// touches neither the treated unit's pre-period weights nor the placebo
// fits.
func (c *Curve) Power(effect float64) float64 {
	detected := 0
	for _, pl := range c.tests {
		if pl.PValueShifted(effect) <= c.alpha {
			detected++
		}
	}
	return float64(detected) / float64(len(c.tests))
}

// MinDetectableEffect bisects (0, maxEffect] twelve times for the smallest
// effect whose power reaches target, on the curve's own trials. It returns
// the smallest upper bracket: power there is at least target, and power at
// the bracket maxEffect/2¹² below it is not (unless that is 0). The curve
// need not be monotone, so this is one crossing, chosen deterministically.
func (c *Curve) MinDetectableEffect(target, maxEffect float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("power: target must be in (0,1)")
	}
	if p := c.Power(maxEffect); p < target {
		return 0, fmt.Errorf("power: even effect %v only reaches power %.2f < %.2f", maxEffect, p, target)
	}
	lo, hi := 0.0, maxEffect
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		if c.Power(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
