package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/causal/scm"
	"sisyphus/internal/mathx"
	"sisyphus/internal/parallel"
)

// CellularOptions sizes the cellular confounding box's sample.
type CellularOptions struct {
	N int // sessions to draw from the structural model
}

func (CellularOptions) experimentOptions() {}

// minCellularN and maxCellularN bound the sample: a small sample can leave
// the stratified estimate no stratum with both treated and control units
// (10 sessions do), and the cap is 50 times the default of 20,000.
const (
	minCellularN = 100
	maxCellularN = 1000000
)

// validate rejects a sample outside [minCellularN, maxCellularN]; zero or
// less still means the default.
func (o CellularOptions) validate() error {
	if o.N > 0 && o.N < minCellularN {
		return fmt.Errorf("experiments: cellular N %d below the %d floor", o.N, minCellularN)
	}
	if o.N > maxCellularN {
		return fmt.Errorf("experiments: cellular N %d above the %d cap", o.N, maxCellularN)
	}
	return nil
}

// CellularResult reproduces the §3 confounding box: the SIGCOMM'21 cellular
// reliability finding that failure rates are *higher* at the strongest
// signal levels. Deployment density confounds the relationship: dense
// deployments (transit hubs) have strong signal AND more interference-driven
// failures. The naive correlation is positive; adjusting for density
// reveals the true protective effect of signal strength.
type CellularResult struct {
	N               int
	NaiveCorr       float64
	NaiveSlope      estimate.Estimate
	AdjustedSlope   estimate.Estimate
	StratifiedSlope estimate.Estimate
	TrueCoefficient float64
}

// Render prints the contrast.
func (r *CellularResult) Render() string {
	t := &table{header: []string{"analysis", "signal → failure coefficient", "SE"}}
	t.add("naive OLS (no adjustment)", fmt.Sprintf("%+.4f", r.NaiveSlope.Effect), fmt.Sprintf("%.4f", r.NaiveSlope.SE))
	t.add("OLS adjusting for density", fmt.Sprintf("%+.4f", r.AdjustedSlope.Effect), fmt.Sprintf("%.4f", r.AdjustedSlope.SE))
	t.add("stratified on density", fmt.Sprintf("%+.4f", r.StratifiedSlope.Effect), fmt.Sprintf("%.4f", r.StratifiedSlope.SE))
	t.add("TRUE structural coefficient", fmt.Sprintf("%+.4f", r.TrueCoefficient), "-")
	return fmt.Sprintf("Cellular-reliability confounding box (§3): density confounds signal and failure\n(n=%d sessions, naive corr(signal, failure)=%.3f —\"stronger signal, more failures\")\n\n%s",
		r.N, r.NaiveCorr, t.String())
}

// RunCellular builds the structural model of the box and shows that naive
// analysis reverses the sign of the signal → failure effect.
//
// Structural truth: density ~ N(0,1); signal = 0.9·density + u (denser
// deployments → stronger signal); interference = 0.8·density + u; failure
// = 0.5·interference − 0.3·signal + u. Signal *reduces* failure (−0.3),
// but density raises both signal and failure, so the marginal association
// is positive.
func RunCellular(ctx context.Context, seed uint64, n int) (*CellularResult, error) {
	if n <= 0 {
		n = 20000
	}
	res := &CellularResult{N: n, TrueCoefficient: -0.3}
	var cols map[string][]float64
	var f, fb *data.Frame
	var bin []float64
	err := stagedRun(ctx, "cellular", func(ctx context.Context) error {
		m := scm.New()
		if err := m.DefineLinear("density", nil, 0, scm.GaussianNoise(1)); err != nil {
			return err
		}
		if err := m.DefineLinear("signal", map[string]float64{"density": 0.9}, 0, scm.GaussianNoise(0.6)); err != nil {
			return err
		}
		if err := m.DefineLinear("interference", map[string]float64{"density": 0.8}, 0, scm.GaussianNoise(0.4)); err != nil {
			return err
		}
		if err := m.DefineLinear("failure", map[string]float64{"interference": 0.5, "signal": -0.3}, 1, scm.GaussianNoise(0.3)); err != nil {
			return err
		}
		var err error
		cols, err = m.SampleN(mathx.NewRNG(seed), n)
		return err
	}, func(ctx context.Context) error {
		var err error
		if f, err = data.FromColumns(cols); err != nil {
			return err
		}
		// The stratified estimator needs a binary treatment: median-split
		// the signal.
		med := mathx.Median(cols["signal"])
		bin = make([]float64, n)
		for i, v := range cols["signal"] {
			if v > med {
				bin[i] = 1
			}
		}
		fb = data.New()
		if err := fb.AddColumn("strongSignal", bin); err != nil {
			return err
		}
		if err := fb.AddColumn("failure", cols["failure"]); err != nil {
			return err
		}
		return fb.AddColumn("density", cols["density"])
	}, func(ctx context.Context) error {
		res.NaiveCorr = mathx.Correlation(cols["signal"], cols["failure"])

		naive, err := estimate.OLS(f, "failure", "signal")
		if err != nil {
			return err
		}
		c, _ := naive.Coefficient("signal")
		se, _ := naive.CoefficientSE("signal")
		res.NaiveSlope = estimate.Estimate{Method: "naive OLS", Effect: c, SE: se, N: n}

		adj, err := estimate.OLS(f, "failure", "signal", "density")
		if err != nil {
			return err
		}
		c2, _ := adj.Coefficient("signal")
		se2, _ := adj.CoefficientSE("signal")
		res.AdjustedSlope = estimate.Estimate{Method: "adjusted OLS", Effect: c2, SE: se2, N: n}

		strat, err := estimate.Stratified(fb, "strongSignal", "failure", []string{"density"}, 20)
		if err != nil {
			return err
		}
		// Scale the binary contrast to a per-unit-signal slope for display:
		// E[signal | top half] − E[signal | bottom half].
		var hi, lo []float64
		for i, v := range cols["signal"] {
			if bin[i] == 1 {
				hi = append(hi, v)
			} else {
				lo = append(lo, v)
			}
		}
		gap := mathx.Mean(hi) - mathx.Mean(lo)
		res.StratifiedSlope = estimate.Estimate{
			Method: strat.Method, Effect: strat.Effect / gap, SE: strat.SE / gap, N: strat.N,
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	registerOptions("cellular", "§3 confounding box: deployment density confounds signal strength and failures",
		CellularOptions{N: 20000},
		func(ctx context.Context, _ parallel.Pool, seed uint64, o CellularOptions) (*CellularResult, error) {
			return RunCellular(ctx, seed, o.N)
		})
}
