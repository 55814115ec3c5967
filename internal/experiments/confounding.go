package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/parallel"
)

// ConfoundingResult reproduces the §3 running example: congestion C causes
// both route changes R (via load-adaptive egress) and latency L (via
// queueing), so the naive P(L | R) contrast is biased. The simulator
// provides the ground-truth interventional effect for comparison.
type ConfoundingResult struct {
	Hours       int
	RouteShare  float64 // fraction of hours spent on the alternate route
	Naive       estimate.Estimate
	Stratified  estimate.Estimate
	Regression  estimate.Estimate
	IPW         estimate.Estimate
	TrueEffect  float64 // ground truth: mean per-hour forced-route contrast
	DAGAnalysis string
}

// Render prints the estimator comparison.
func (r *ConfoundingResult) Render() string {
	t := &table{header: []string{"estimator", "effect of route change on RTT (ms)", "SE", "p"}}
	add := func(e estimate.Estimate) {
		t.add(e.Method, fmt.Sprintf("%+.3f", e.Effect), fmt.Sprintf("%.3f", e.SE), fmt.Sprintf("%.3f", e.PValue()))
	}
	add(r.Naive)
	add(r.Stratified)
	add(r.Regression)
	add(r.IPW)
	t.add("GROUND TRUTH do(R)", fmt.Sprintf("%+.3f", r.TrueEffect), "-", "-")
	return fmt.Sprintf("Running example (§3): congestion confounds routing and latency\n(%d hours simulated, alternate route used %.0f%% of the time)\n\n%s\nDAG analysis:\n%s",
		r.Hours, 100*r.RouteShare, t.String(), r.DAGAnalysis)
}

// RunConfounding simulates a multihomed access network whose egress
// controller shifts to its backup transit under congestion, while the same
// congestion inflates RTT. It compares naive, stratified, regression and
// IPW estimates of the route's effect against the simulator's ground truth
// obtained by pinning the route both ways at every sampled hour. The world
// comes from o.Scenario (default the South Africa world) and must cast a
// multihomed eyeball.
//
// It is the default causal query — R → L, adjustment identified from
// QueryDefaultGraph — over the same cached substrate, under the
// experiment's own horizon: the served hour bounds guard /query's input,
// not this. Hours ≤ 0 means 1500.
func RunConfounding(ctx context.Context, pool parallel.Pool, seed uint64, o WorldOptions) (*ConfoundingResult, error) {
	hours := o.Hours
	if hours <= 0 {
		hours = 1500
	}
	plan, err := planQuery(CausalQuery{
		Treatment: "R", Outcome: "L", Auto: true,
		Scenario: scenarioOr(o.Scenario), Seed: seed, Hours: hours,
	}.withDefaults())
	if err != nil {
		return nil, err
	}
	qr, err := runQueryPlan(ctx, "confounding", pool, plan)
	if err != nil {
		return nil, err
	}
	est := qr.Estimates // naive, stratified, regression, IPW
	return &ConfoundingResult{
		Hours:       hours,
		RouteShare:  qr.TreatedShare,
		Naive:       est[0],
		Stratified:  est[1],
		Regression:  est[2],
		IPW:         est[3],
		TrueEffect:  float64(qr.TrueEffect),
		DAGAnalysis: fmt.Sprintf("  graph: %s\n  backdoor paths: %v\n  minimal adjustment sets: %v\n", plan.Query.Graph, plan.BackdoorPaths, plan.AdjustmentSets),
	}, nil
}

// confoundingScenario builds the named world with a load-adaptive egress,
// simulates it, and collects the observational columns plus the
// forced-route ground-truth contrast. The world must cast a multihomed
// eyeball (scenario.EyeballCast); worlds without one refuse with
// scenario.ErrCastingMissing.
func confoundingScenario(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, hours int) (*queryFrame, error) {
	eye, err := newEyeball(ctx, pool, scenarioID, seed, engine.Config{AdaptiveEgress: true})
	if err != nil {
		return nil, err
	}
	e := eye.e
	// The eyeball's content routes prefer its primary transit (shorter path,
	// lower ASN), so recurring flash crowds on that link trigger
	// load-adaptive shifts onto the alternate — congestion causing the route
	// change, the C → R edge of the running example.
	eye.crowds(crowdPlan{start: 24, dur: uniform{6, 12}, mag: uniform{0.35, 0.2}, gap: uniform{48, 24}},
		mathx.NewRNG(seed+99), hours)

	// A slice of hours carries exogenous one-hour route forcings (the §4
	// "knob": operator-scheduled path tests). They guarantee that both
	// routes are observed at every congestion level — the positivity
	// condition adjustment estimators need. The remaining hours use
	// whatever the endogenous controller chose, which is where the
	// confounding lives.
	flipRNG := mathx.NewRNG(seed + 7)

	sim := &queryFrame{}
	for e.Hour() < float64(hours) {
		if err := e.Step(); err != nil {
			return nil, err
		}
		var perf *engine.PathPerf
		switch {
		case flipRNG.Bernoulli(0.25):
			perf, err = eye.observeForced(eye.cast.Alternate) // force primary
		case flipRNG.Bernoulli(1.0 / 3.0): // 0.25 of the original mass
			perf, err = eye.observeForced(eye.cast.Primary) // force alternate
		default:
			perf, err = e.PerfToAS(eye.src, eye.dst)
		}
		if err != nil {
			return nil, err
		}
		onAlt := eye.onAlternate(perf.Path.ASPath)
		sim.AltShare += onAlt
		sim.R = append(sim.R, onAlt)
		sim.L = append(sim.L, perf.RTTms)
		sim.C = append(sim.C, e.Utilization(eye.primary))
		sim.Hour = append(sim.Hour, e.Hour())

		// Ground truth: force each route in turn, same instant, same noise.
		contrast, err := eye.forcedContrast()
		if err != nil {
			return nil, err
		}
		sim.TrueSum += contrast
		sim.TrueN++
	}
	return sim, nil
}

func init() {
	registerOptions("confounding", "§3 running example: adjusting for congestion when estimating route → latency",
		WorldOptions{Hours: 1500}, RunConfounding)
}
