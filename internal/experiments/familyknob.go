package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// FamilyKnobResult demonstrates §4's proposal (3) concretely: toggling the
// IP family of a measurement changes the AS path without reference to
// network state, so the family bit is a *designed* instrument for the
// route's effect on RTT. The client randomizes the family per test; the v6
// plane is pinned to the alternate transit; 2SLS over the family bit
// recovers the route effect even though congestion confounds the
// endogenous route variation.
type FamilyKnobResult struct {
	Tests int
	// NaiveOLS regresses RTT on the observed route over all tests.
	NaiveOLS estimate.Estimate
	// FamilyIV uses the randomized family bit as the instrument.
	FamilyIV *estimate.IVResult
	// TrueEffect is the per-hour forced-route contrast at calm hours.
	TrueEffect float64
}

// Render prints the comparison.
func (r *FamilyKnobResult) Render() string {
	t := &table{header: []string{"estimator", "effect of alternate route on RTT (ms)", "SE", "1st-stage F"}}
	t.add("naive OLS on observed route", fmt.Sprintf("%+.3f", r.NaiveOLS.Effect),
		fmt.Sprintf("%.3f", r.NaiveOLS.SE), "-")
	t.add("2SLS, family-toggle instrument", fmt.Sprintf("%+.3f", r.FamilyIV.Effect),
		fmt.Sprintf("%.3f", r.FamilyIV.SE), fmt.Sprintf("%.1f", r.FamilyIV.FirstStageF))
	t.add("GROUND TRUTH do(R) at calm hours", fmt.Sprintf("%+.3f", r.TrueEffect), "-", "-")
	return fmt.Sprintf("IPv4/IPv6 toggle as a designed instrument (§4 proposal 3)\n(%d tests, family randomized per test)\n\n%s", r.Tests, t.String())
}

// RunFamilyKnob wires the experiment: the v6 plane of the cast eyeball is
// pinned to its alternate transit while v4 follows the endogenous
// (congestion-coupled, adaptive) default. Each hour the client flips a fair
// coin for the family. Because the coin is independent of network state,
// family ⊥ congestion — a valid instrument even though route choice itself
// is endogenous on v4. The world comes from o.Scenario (default the South
// Africa world) and must cast a multihomed eyeball.
func RunFamilyKnob(ctx context.Context, pool parallel.Pool, seed uint64, o WorldOptions) (*FamilyKnobResult, error) {
	hours := o.Hours
	if hours <= 0 {
		hours = 1500
	}
	res := &FamilyKnobResult{}
	var sim *familyKnobSim
	var f *data.Frame
	err := stagedRun(ctx, "familyknob", func(ctx context.Context) error {
		var err error
		sim, err = familyKnobScenario(ctx, pool, scenarioOr(o.Scenario), seed, hours)
		return err
	}, func(ctx context.Context) error {
		var err error
		f, err = data.FromColumns(map[string][]float64{"Z": sim.zCol, "R": sim.rCol, "L": sim.lCol})
		return err
	}, func(ctx context.Context) error {
		var err error
		res.Tests = len(sim.zCol)
		res.TrueEffect = sim.trueSum / float64(sim.trueN)
		if res.NaiveOLS, err = estimate.Regression(f, "R", "L", nil); err != nil {
			return err
		}
		res.FamilyIV, err = estimate.TwoSLS(f, "R", "L", []string{"Z"}, nil)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// familyKnobSim holds the per-test columns (family bit, observed route, RTT)
// and the calm-hour ground truth.
type familyKnobSim struct {
	zCol, rCol, lCol []float64
	trueSum          float64
	trueN            int
}

// familyKnobScenario pins the v6 plane to the alternate transit and runs the
// per-hour randomized family toggles. The world must cast a multihomed
// eyeball (scenario.EyeballCast).
func familyKnobScenario(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, hours int) (*familyKnobSim, error) {
	eye, err := newEyeball(ctx, pool, scenarioID, seed, engine.Config{AdaptiveEgress: true})
	if err != nil {
		return nil, err
	}
	e := eye.e
	pr := probe.NewProber(e, seed+1)
	knobs := platform.NewKnobs(pr, seed+2)
	eye.crowds(calmCrowds, mathx.NewRNG(seed+3), hours)
	// Pin the v6 plane to the alternate transit for the whole study.
	if _, err := knobs.ForceUpstreamFamily(engine.V6, eye.cast.ASN, eye.cast.Alternate); err != nil {
		return nil, err
	}

	sim := &familyKnobSim{}
	for e.Hour() < float64(hours) {
		if err := e.Step(); err != nil {
			return nil, err
		}
		fam := engine.V4
		z := 0.0
		if knobs.CoinFlip() {
			fam, z = engine.V6, 1
		}
		m, err := pr.SpeedTestFamily(eye.src, eye.dst, fam, probe.IntentExperiment, "family-toggle")
		if err != nil {
			return nil, err
		}
		sim.zCol = append(sim.zCol, z)
		sim.rCol = append(sim.rCol, eye.onAlternate(m.ASPath))
		sim.lCol = append(sim.lCol, m.RTTms)

		if e.Utilization(eye.primary) <= 0.75 { // a calm hour, outside any crowd
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
	registerOptions("familyknob", "§4 proposal 3: IPv4/IPv6 toggle as an exogenous-variation knob (instrument)",
		WorldOptions{Hours: 1500}, RunFamilyKnob)
}
