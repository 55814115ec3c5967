package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/scm"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/parallel"
)

// CounterfactualResult reproduces §3's counterfactual discussion: a user's
// call degraded right after a reroute — "would quality have been better had
// the route change not occurred?". We answer it two ways: (a) the fitted
// structural model via abduction–action–prediction, and (b) the simulator's
// exact replay of the same world without the route change. The paper can
// only do (a); the simulator validates it against (b).
type CounterfactualResult struct {
	EventHour      float64
	FactualRTT     float64
	SCMPredicted   float64 // counterfactual RTT from the fitted linear SCM
	ReplayTruth    float64 // counterfactual RTT from ground-truth replay
	AttributionSCM float64 // factual − SCM counterfactual
	AttributionTru float64 // factual − replay counterfactual
	FitN           int
	CoefRtoL       float64 // fitted structural coefficient of R on L
}

// Render prints the comparison.
func (r *CounterfactualResult) Render() string {
	t := &table{header: []string{"", "RTT (ms)"}}
	t.add("factual (route changed, congested)", fmt.Sprintf("%.2f", r.FactualRTT))
	t.add("counterfactual, fitted SCM", fmt.Sprintf("%.2f", r.SCMPredicted))
	t.add("counterfactual, ground-truth replay", fmt.Sprintf("%.2f", r.ReplayTruth))
	return fmt.Sprintf("Counterfactual (§3): would the degradation have happened without the reroute?\n(event at hour %.0f; SCM fitted on %d observational hours; fitted R→L coefficient %.2f)\n\n%s\nattribution to the route change: SCM %.2f ms, ground truth %.2f ms\n",
		r.EventHour, r.FitN, r.CoefRtoL, t.String(), r.AttributionSCM, r.AttributionTru)
}

// RunCounterfactual fits a linear SCM over (C, R, L) from observational
// hours of the confounded world, then answers the counterfactual for a
// specific degraded hour where an exogenous policy event rerouted traffic.
// The simulator replays the identical world without the event for truth.
// The world comes from o.Scenario (default the South Africa world) and must
// cast a multihomed eyeball.
func RunCounterfactual(ctx context.Context, pool parallel.Pool, seed uint64, o WorldOptions) (*CounterfactualResult, error) {
	hours := o.Hours
	if hours <= 0 {
		hours = 1200
	}
	// The event fires 200 hours before the horizon and the SCM is fit on
	// the hours before it, which must be at least QueryMinHours.
	if hours-200 < QueryMinHours {
		return nil, queryInvalidf("counterfactual Hours %d leaves %d hours before its event at Hours - 200; the SCM needs %d",
			hours, max(hours-200, 0), QueryMinHours)
	}
	scenarioID := scenarioOr(o.Scenario)
	eventHour := float64(hours) - 200

	run := func(withEvent bool) (cCol, rCol, lCol []float64, err error) {
		eye, err := newEyeball(ctx, pool, scenarioID, seed, engine.Config{})
		if err != nil {
			return nil, nil, nil, err
		}
		e, cast := eye.e, eye.cast
		// Congestion lands on the content network's shared access link, so
		// it degrades BOTH candidate routes equally: the reroute's causal
		// effect is the (small, constant) path-length difference, while
		// congestion drives the visible spikes. Same seeds in both worlds.
		shared, err := cast.SharedUplink.Resolve(eye.rel)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
		}
		crowdPlan{start: 30, dur: uniform{8, 8}, mag: uniform{0.2, 0.15}, gap: uniform{50, 40}}.
			schedule(e.Traffic.AddFlashCrowd, mathx.NewRNG(seed+1), hours, shared)
		// A congestion burst coincides with the event window so the
		// factual hour is genuinely degraded for two reasons at once —
		// the ambiguity the counterfactual must resolve.
		e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: shared, StartHour: eventHour - 2, Hours: 12, Magnitude: 0.25})
		// Operator route tests pre-event (identical in both worlds): they
		// give the SCM fit the route variation it needs to identify the
		// R → L coefficient. This is §4's exogenous-knob proposal in use.
		flipRNG := mathx.NewRNG(seed + 2)
		for h := 40.0; h < eventHour-30; h += 60 + 80*flipRNG.Float64() {
			dur := 4 + 8*flipRNG.Float64()
			e.Schedule(engine.EvSetLocalPref(h, cast.ASN, cast.Alternate, 400))
			e.Schedule(engine.EvSetLocalPref(h+dur, cast.ASN, cast.Alternate, 100))
		}
		if withEvent {
			// The reroute under scrutiny: an exogenous local-pref flip at
			// eventHour moves the eyeball's traffic onto its alternate.
			e.Schedule(engine.EvSetLocalPref(eventHour, cast.ASN, cast.Alternate, 400))
		}
		for e.Hour() < float64(hours) {
			if err := e.Step(); err != nil {
				return nil, nil, nil, err
			}
			perf, err := e.PerfToAS(eye.src, eye.dst)
			if err != nil {
				return nil, nil, nil, err
			}
			cCol = append(cCol, e.Utilization(shared))
			rCol = append(rCol, eye.onAlternate(perf.Path.ASPath))
			lCol = append(lCol, perf.RTTms)
		}
		return cCol, rCol, lCol, nil
	}

	res := &CounterfactualResult{EventHour: eventHour}
	var c1, r1, l1, l0 []float64
	var eventIdx, obsIdx int
	var f *data.Frame
	err := stagedRun(ctx, "counterfactual", func(ctx context.Context) error {
		var err error
		if c1, r1, l1, err = run(true); err != nil {
			return err
		}
		_, _, l0, err = run(false)
		return err
	}, func(ctx context.Context) error {
		eventIdx = int(eventHour) // step index ≈ hour (1h steps), event fires at that step
		if eventIdx+1 >= len(l1) {
			return fmt.Errorf("experiments: event index out of range")
		}
		// Pick the first post-event hour as "the degraded call".
		obsIdx = eventIdx + 1
		// Fit the SCM on pre-event observational data only (the analyst
		// cannot use the future).
		var err error
		f, err = data.FromColumns(map[string][]float64{
			"C": c1[:eventIdx], "R": r1[:eventIdx], "L": l1[:eventIdx],
		})
		return err
	}, func(ctx context.Context) error {
		g := dag.MustParse("C -> R; C -> L; R -> L")
		model, err := scm.FitLinear(g, f)
		if err != nil {
			return err
		}
		observed := map[string]float64{"C": c1[obsIdx], "R": r1[obsIdx], "L": l1[obsIdx]}
		cf, err := model.Counterfactual(observed, map[string]float64{"R": 0})
		if err != nil {
			return err
		}
		res.FactualRTT = l1[obsIdx]
		res.SCMPredicted = cf["L"]
		res.ReplayTruth = l0[obsIdx]
		res.FitN = eventIdx
		res.AttributionSCM = res.FactualRTT - res.SCMPredicted
		res.AttributionTru = res.FactualRTT - res.ReplayTruth
		if coef, ok := model.Coefficient("L", "R"); ok {
			res.CoefRtoL = coef
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	registerOptions("counterfactual", "§3 counterfactual: abduction–action–prediction vs ground-truth replay",
		WorldOptions{Hours: 1200}, RunCounterfactual)
}
