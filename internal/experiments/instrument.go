package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/parallel"
)

// IVResult reproduces §3's natural-experiment discussion: scheduled link
// maintenance as a *valid* instrument for route changes (its timing is
// exogenous), versus a load-coupled policy change as an *invalid* one (the
// exclusion restriction fails because the event moves congestion too).
type IVResult struct {
	Hours       int
	NaiveOLS    estimate.Estimate
	ValidIV     *estimate.IVResult
	InvalidIV   *estimate.IVResult
	TrueEffect  float64
	DAGValid    []string // instruments found by DAG analysis in the valid world
	DAGViolated []string // exclusion-violation paths for the invalid candidate
}

// Render prints the comparison.
func (r *IVResult) Render() string {
	t := &table{header: []string{"estimator", "effect of reroute on RTT (ms)", "SE", "1st-stage F"}}
	t.add("naive OLS", fmt.Sprintf("%+.3f", r.NaiveOLS.Effect), fmt.Sprintf("%.3f", r.NaiveOLS.SE), "-")
	t.add("2SLS, maintenance instrument (valid)", fmt.Sprintf("%+.3f", r.ValidIV.Effect),
		fmt.Sprintf("%.3f", r.ValidIV.SE), fmt.Sprintf("%.1f", r.ValidIV.FirstStageF))
	t.add("2SLS, load-coupled instrument (invalid)", fmt.Sprintf("%+.3f", r.InvalidIV.Effect),
		fmt.Sprintf("%.3f", r.InvalidIV.SE), fmt.Sprintf("%.1f", r.InvalidIV.FirstStageF))
	t.add("GROUND TRUTH do(R) at calm hours", fmt.Sprintf("%+.3f", r.TrueEffect), "-", "-")
	return fmt.Sprintf("Natural experiments & instruments (§3)\n(%d hours)\n\n%s\nDAG: instruments found for maintenance world: %v\nDAG: exclusion violations for load-coupled candidate: %v\n",
		r.Hours, t.String(), r.DAGValid, r.DAGViolated)
}

// RunInstrument simulates the cast eyeball's dual-homed egress where
// unobserved congestion drives both route choice (adaptive egress) and RTT.
// Scheduled maintenance windows on the primary transit link force reroutes
// at exogenous times — a valid instrument. A second world couples the
// "policy flip" to flash crowds, breaking the exclusion restriction. The
// world comes from o.Scenario (default the South Africa world) and must
// cast a multihomed eyeball.
func RunInstrument(ctx context.Context, pool parallel.Pool, seed uint64, o WorldOptions) (*IVResult, error) {
	hours := o.Hours
	if hours <= 0 {
		hours = 2000
	}
	res := &IVResult{Hours: hours}
	var sim *ivSim
	var f *data.Frame
	err := stagedRun(ctx, "instrument", func(ctx context.Context) error {
		var err error
		sim, err = instrumentScenario(ctx, pool, scenarioOr(o.Scenario), seed, hours)
		return err
	}, func(ctx context.Context) error {
		var err error
		f, err = data.FromColumns(map[string][]float64{
			"R": sim.rCol, "L": sim.lCol, "Zmaint": sim.zMaint, "Zload": sim.zLoad,
		})
		return err
	}, func(ctx context.Context) error {
		var err error
		res.TrueEffect = sim.trueSum / float64(sim.trueN)
		if res.NaiveOLS, err = estimate.Regression(f, "R", "L", nil); err != nil {
			return err
		}
		if res.ValidIV, err = estimate.TwoSLS(f, "R", "L", []string{"Zmaint"}, nil); err != nil {
			return err
		}
		res.InvalidIV, err = estimate.TwoSLS(f, "R", "L", []string{"Zload"}, nil)
		return err
	}, func(ctx context.Context) error {
		// DAG-side analysis: in the valid world the maintenance node is an
		// instrument; in the invalid world the load-coupled candidate has an
		// unblocked non-treatment path to L.
		gValid := dag.MustParse("U [latent]; U -> R; U -> L; Zmaint -> R; R -> L")
		res.DAGValid = gValid.Instruments("R", "L")
		gInvalid := dag.MustParse("U [latent]; U -> R; U -> L; U -> Zload; Zload -> R; R -> L")
		for _, p := range gInvalid.ExclusionViolations("Zload", "R", "L") {
			res.DAGViolated = append(res.DAGViolated, p.String())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ivSim holds the observational columns and the complier ground truth the
// instrument scenario stage produces.
type ivSim struct {
	rCol, lCol, zMaint, zLoad []float64
	trueSum                   float64
	trueN                     int
}

// instrumentScenario builds the dual-homed world with unobserved congestion
// and exogenous maintenance windows, then simulates it hour by hour. The
// world must cast a multihomed eyeball (scenario.EyeballCast).
func instrumentScenario(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, hours int) (*ivSim, error) {
	eye, err := newEyeball(ctx, pool, scenarioID, seed, engine.Config{AdaptiveEgress: true})
	if err != nil {
		return nil, err
	}
	e := eye.e
	// Unobserved congestion: flash crowds on the primary link (the analyst
	// in this experiment does NOT get a congestion column — that is what
	// makes IV necessary).
	crowdHours := eye.crowds(calmCrowds, mathx.NewRNG(seed+1), hours)

	// Valid instrument: maintenance windows at exogenous times.
	maintRNG := mathx.NewRNG(seed + 2)
	var maintWindows [][2]float64
	for h := 50.0; h < float64(hours); h += 90 + 120*maintRNG.Float64() {
		dur := 5 + 6*maintRNG.Float64()
		start, end := engine.EvMaintenance(h, dur, eye.primary)
		e.Schedule(start)
		e.Schedule(end)
		maintWindows = append(maintWindows, [2]float64{h, h + dur})
	}

	inWindow := func(ws [][2]float64, h float64) float64 {
		for _, w := range ws {
			if h >= w[0] && h < w[1] {
				return 1
			}
		}
		return 0
	}

	sim := &ivSim{}
	for e.Hour() < float64(hours) {
		if err := e.Step(); err != nil {
			return nil, err
		}
		perf, err := e.PerfToAS(eye.src, eye.dst)
		if err != nil {
			return nil, err
		}
		maintNow := inWindow(maintWindows, e.Hour())
		crowdNow := inWindow(crowdHours, e.Hour())
		sim.rCol = append(sim.rCol, eye.onAlternate(perf.Path.ASPath))
		sim.lCol = append(sim.lCol, perf.RTTms)
		sim.zMaint = append(sim.zMaint, maintNow)
		// The invalid instrument: an indicator correlated with the
		// unobserved congestion (a "policy flip" announced exactly during
		// demand surges). It predicts reroutes — but also directly
		// coincides with congestion-inflated RTT.
		sim.zLoad = append(sim.zLoad, crowdNow)

		// Ground truth for the estimand the maintenance instrument
		// identifies: the reroute effect under ordinary conditions (the
		// compliers are hours where only the maintenance forced a switch).
		// Hours inside crowds or maintenance are excluded: during crowds
		// the effect is congestion-coupled, during maintenance the primary
		// cannot be forced at all.
		if maintNow == 0 && crowdNow == 0 {
			contrast, err := eye.forcedContrast()
			if err != nil {
				return nil, err
			}
			sim.trueSum += contrast
			sim.trueN++
		}
	}
	return sim, nil
}

func init() {
	registerOptions("instrument", "§3 natural experiments: maintenance as a valid IV, load-coupled policy as invalid",
		WorldOptions{Hours: 2000}, RunInstrument)
}
