package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
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
	s, rib, err := fetchWorld(ctx, pool, scenarioID)
	if err != nil {
		return nil, err
	}
	cast, err := s.RequireEyeball()
	if err != nil {
		return nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
	}
	dst := s.MeasureDst()
	e := engine.New(s.Topo, seed, engine.Config{AdaptiveEgress: true, Pool: pool, InitialRIB: rib}).Bind(ctx)

	// The eyeball's content routes prefer its primary transit (shorter path,
	// lower ASN), so recurring flash crowds on that link trigger
	// load-adaptive shifts onto the alternate — congestion causing the route
	// change, the C → R edge of the running example.
	rel, err := s.Topo.Relationships()
	if err != nil {
		return nil, err
	}
	primary := rel.Links[cast.ASN][cast.Primary][0]
	rng := mathx.NewRNG(seed + 99)
	for h := 24.0; h < float64(hours); h += 48 + 24*rng.Float64() {
		e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
			Link: primary, StartHour: h, Hours: 6 + 12*rng.Float64(), Magnitude: 0.35 + 0.2*rng.Float64(),
		})
	}

	src, err := s.Topo.FindPoP(cast.ASN, cast.City)
	if err != nil {
		return nil, err
	}

	// A slice of hours carries exogenous one-hour route forcings (the §4
	// "knob": operator-scheduled path tests). They guarantee that both
	// routes are observed at every congestion level — the positivity
	// condition adjustment estimators need. The remaining hours use
	// whatever the endogenous controller chose, which is where the
	// confounding lives.
	flipRNG := mathx.NewRNG(seed + 7)

	sim := &queryFrame{}
	for e.Hour() < float64(hours) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.Step(); err != nil {
			return nil, err
		}
		var perf *engine.PathPerf
		switch {
		case flipRNG.Bernoulli(0.25):
			v, err := observeForced(e, cast, dst, src, cast.Alternate) // force primary
			if err != nil {
				return nil, err
			}
			perf = v
		case flipRNG.Bernoulli(1.0 / 3.0): // 0.25 of the original mass
			v, err := observeForced(e, cast, dst, src, cast.Primary) // force alternate
			if err != nil {
				return nil, err
			}
			perf = v
		default:
			v, err := e.PerfToAS(src, dst)
			if err != nil {
				return nil, err
			}
			perf = v
		}
		onAlt := 0.0
		for _, asn := range perf.Path.ASPath {
			if asn == cast.Alternate {
				onAlt = 1
			}
		}
		sim.AltShare += onAlt
		sim.R = append(sim.R, onAlt)
		sim.L = append(sim.L, perf.RTTms)
		sim.C = append(sim.C, e.Utilization(primary))
		sim.Hour = append(sim.Hour, e.Hour())

		// Ground truth: force each route in turn, same instant, same noise.
		prefA, prefB, err := forcedContrast(e, cast, dst, src)
		if err != nil {
			return nil, err
		}
		sim.TrueSum += prefA - prefB
		sim.TrueN++
	}
	return sim, nil
}

// observeForced measures the eyeball's performance with the given transit
// avoided for one instant: a what-if on a policy clone, so the factual
// policy and routes are never touched.
func observeForced(e *engine.Engine, cast scenario.EyeballCast, dst topo.ASN, src topo.PoPID, avoid topo.ASN) (*engine.PathPerf, error) {
	other := cast.Primary
	if avoid == cast.Primary {
		other = cast.Alternate
	}
	return e.PerfToASWith(src, dst, func(p *bgp.Policy) {
		p.SetLocalPref(cast.ASN, avoid, 10)
		p.SetLocalPref(cast.ASN, other, bgp.PrefProvider)
	})
}

// forcedContrast pins the eyeball's egress to each transit in turn and
// measures the true RTT under identical conditions: the do(R = alt) and
// do(R = primary) outcomes at this instant. Both are what-ifs, so the
// factual trajectory is untouched.
func forcedContrast(e *engine.Engine, cast scenario.EyeballCast, dst topo.ASN, src topo.PoPID) (viaAlt, viaPrimary float64, err error) {
	a, err := observeForced(e, cast, dst, src, cast.Primary) // avoid primary → via alt
	if err != nil {
		return 0, 0, err
	}
	b, err := observeForced(e, cast, dst, src, cast.Alternate) // avoid alt → via primary
	if err != nil {
		return 0, 0, err
	}
	return a.RTTms, b.RTTms, nil
}

func init() {
	defaults := WorldOptions{Hours: 1500}
	register(Experiment{
		ID:       "confounding",
		Paper:    "§3 running example: adjusting for congestion when estimating route → latency",
		Defaults: defaults,
		Run: func(ctx context.Context, cfg Config) (Renderable, error) {
			o, err := optionsOr(cfg, defaults)
			if err != nil {
				return nil, err
			}
			return RunConfounding(ctx, cfg.Pool, cfg.Seed, o)
		},
	})
}
