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
	Trials int // simulated studies per point on the power curve
}

func (PowerOptions) experimentOptions() {}

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

// RunPower evaluates the Table-1-like design. Monte-Carlo trials shard
// across pool; results are bit-identical at any width.
func RunPower(ctx context.Context, pool parallel.Pool, seed uint64, trials int) (*PowerResult, error) {
	if trials <= 0 {
		trials = 120
	}
	d := power.SCDesign{
		Donors: 18, PrePeriods: 42, PostPeriods: 42,
		UnitNoise: 1.2, Method: synthetic.Robust,
	}
	const alpha = 0.06 // just above the design's min p of 1/19
	res := &PowerResult{Design: d, Alpha: alpha}
	err := stagedRun(ctx, "power", nil, nil, func(ctx context.Context) error {
		// All the work is estimation: Monte-Carlo detection power across the
		// effect grid (one set of placebo fits per trial scores every grid
		// point), then the bisection for the minimum detectable effect.
		res.Effects = []float64{0, 0.5, 1, 1.5, 2, 3, 5}
		p, err := d.Power(ctx, pool, res.Effects, alpha, trials, seed)
		if err != nil {
			return err
		}
		res.Power = p
		mde, err := d.MinDetectableEffect(ctx, pool, alpha, 0.8, 8, trials/2, seed+1)
		if err != nil {
			return err
		}
		res.MDE80 = mde
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	defaults := PowerOptions{Trials: 120}
	register(Experiment{
		ID:       "power",
		Paper:    "§4 design planning: can this study detect the effects it is looking for?",
		Defaults: defaults,
		Run: func(ctx context.Context, cfg Config) (Renderable, error) {
			o, err := optionsOr(cfg, defaults)
			if err != nil {
				return nil, err
			}
			return RunPower(ctx, cfg.Pool, cfg.Seed, o.Trials)
		},
	})
}
