package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/power"
	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/parallel"
)

// PowerOptions sizes the Monte-Carlo power analysis.
type PowerOptions struct {
	Trials int // simulated studies behind the whole curve and its MDE
}

func (PowerOptions) experimentOptions() {}

// maxPowerTrials caps PowerOptions.Trials. Each trial is one placebo test
// (Donors+1 synthetic-control fits) held until the run ends, so the cap
// bounds what one options document can spend: 2,000 trials cost about 17×
// the default run's CPU and hold about 6 MB of placebo tests.
const maxPowerTrials = 2000

// validate rejects a trial count outside [1, maxPowerTrials].
func (o PowerOptions) validate() error {
	if o.Trials < 1 || o.Trials > maxPowerTrials {
		return fmt.Errorf("experiments: power Trials %d outside [1, %d]", o.Trials, maxPowerTrials)
	}
	return nil
}

// PowerResult is the §4 design-planning analysis: the detection power of
// the Table 1 study design across effect sizes, and its minimum detectable
// effect. It turns the paper's empirical verdict ("the effect is neither
// consistent nor robust") into a design statement: effects below the MDE
// were never going to be significant in this design, no matter how real.
type PowerResult struct {
	Design power.SCDesign
	Alpha  float64
	// Curve maps effect size (ms) to detection power.
	Effects []float64
	Power   []float64
	// MDE80 is the minimum effect detectable with 80% power.
	MDE80 float64
}

// Render prints the curve and the punchline.
func (r *PowerResult) Render() string {
	t := &table{header: []string{"true effect (ms)", "detection power"}}
	for i := range r.Effects {
		t.add(fmt.Sprintf("%.1f", r.Effects[i]), fmt.Sprintf("%.2f", r.Power[i]))
	}
	return fmt.Sprintf(`Design planning (§4): power of the Table 1 study design
(%d donors, %d pre + %d post bins, %.1f ms unit noise, placebo test at α=%.2f)

%s
minimum detectable effect at 80%% power: %.2f ms

Reading: several of the paper's units moved by less than this — their
"not significant" rows are a property of the DESIGN's resolution, not
evidence of no effect. §4's point exactly: plan the measurement so the
effect of interest is identifiable, or know in advance that it is not.
`, r.Design.Donors, r.Design.PrePeriods, r.Design.PostPeriods, r.Design.UnitNoise,
		r.Alpha, t.String(), r.MDE80)
}

// RunPower evaluates the Table-1-like design on `trials` simulated studies,
// which must lie in [1, maxPowerTrials]. Monte-Carlo trials shard across
// pool; results are bit-identical at any width.
func RunPower(ctx context.Context, pool parallel.Pool, seed uint64, trials int) (*PowerResult, error) {
	if err := (PowerOptions{Trials: trials}).validate(); err != nil {
		return nil, err
	}
	d := power.SCDesign{
		Donors: 18, PrePeriods: 42, PostPeriods: 42,
		UnitNoise: 1.2, Method: synthetic.Robust,
	}
	const alpha = 0.06 // just above the design's min p of 1/19
	res := &PowerResult{Design: d, Alpha: alpha}
	err := stagedRun(ctx, "power", nil, nil, func(ctx context.Context) error {
		// All the work is estimation: one placebo test per simulated trial.
		// The effect grid and the minimum detectable effect are both read
		// off those same trials, at no further fits.
		c, err := d.Curve(ctx, pool, alpha, trials, seed)
		if err != nil {
			return err
		}
		res.Effects = []float64{0, 0.5, 1, 1.5, 2, 3, 5}
		res.Power = make([]float64, len(res.Effects))
		for i, e := range res.Effects {
			res.Power[i] = c.Power(e)
		}
		res.MDE80, err = c.MinDetectableEffect(0.8, 8)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	registerOptions("power", "§4 design planning: can this study detect the effects it is looking for?",
		PowerOptions{Trials: 120},
		func(ctx context.Context, pool parallel.Pool, seed uint64, o PowerOptions) (*PowerResult, error) {
			return RunPower(ctx, pool, seed, o.Trials)
		})
}
