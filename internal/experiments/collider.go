package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// ColliderResult reproduces the §3 collider box: route changes and poor
// performance each independently prompt users to run speed tests. Analyzing
// only the tests that ran conditions on the collider "test ran" and
// fabricates an association between route changes and degradation that does
// not exist in the full population.
type ColliderResult struct {
	Hours int
	// PopulationCorr is corr(routeChanged, degradation) over ALL hours —
	// the estimand an unbiased observer would report.
	PopulationCorr float64
	// SelectedCorr is the same correlation among hours where at least one
	// user-initiated test ran — what a speed-test-only dataset shows.
	SelectedCorr float64
	// PopulationDegradedShare / SelectedDegradedShare: P(degraded) overall
	// vs among route-change hours in each dataset.
	PopChangeDegraded, PopNoChangeDegraded float64
	SelChangeDegraded, SelNoChangeDegraded float64
	Warnings                               []dag.Collider
}

// Render prints the contrast.
func (r *ColliderResult) Render() string {
	t := &table{header: []string{"dataset", "corr(route change, degradation)", "P(degraded | change)", "P(degraded | no change)"}}
	t.add("all hours (ground truth)",
		fmt.Sprintf("%+.3f", r.PopulationCorr),
		fmt.Sprintf("%.3f", r.PopChangeDegraded),
		fmt.Sprintf("%.3f", r.PopNoChangeDegraded))
	t.add("hours with a user test (selected)",
		fmt.Sprintf("%+.3f", r.SelectedCorr),
		fmt.Sprintf("%.3f", r.SelChangeDegraded),
		fmt.Sprintf("%.3f", r.SelNoChangeDegraded))
	warn := ""
	for _, c := range r.Warnings {
		warn += fmt.Sprintf("  conditioning on %q opens %s — %s\n", c.Mid, c.Left, c.Right)
	}
	return fmt.Sprintf("Speed-test collider box (§3): conditioning on \"test ran\" fabricates association\n(%d hours; route changes here are exogenous flips with no latency effect)\n\n%s\nDAG warnings for conditioning on {T}:\n%s",
		r.Hours, t.String(), warn)
}

// RunCollider builds a world where route changes have (essentially) no
// effect on RTT: the access network is multihomed to two transits whose
// paths to the content are symmetric, and an operator flips preference at
// exogenous random times. Congestion noise degrades RTT independently.
// Both events raise the probability that users run speed tests.
func RunCollider(ctx context.Context, pool parallel.Pool, seed uint64, hours int) (*ColliderResult, error) {
	if hours <= 0 {
		hours = 2000
	}
	res := &ColliderResult{Hours: hours}
	var change, degraded, tested []float64
	var selChange, selDegraded []float64
	err := stagedRun(ctx, "collider", func(ctx context.Context) error {
		return colliderScenario(ctx, pool, seed, hours, &change, &degraded, &tested)
	}, func(ctx context.Context) error {
		// Dataset: the selected subsample — hours where a test ran.
		for i := range tested {
			if tested[i] == 1 {
				selChange = append(selChange, change[i])
				selDegraded = append(selDegraded, degraded[i])
			}
		}
		return nil
	}, func(ctx context.Context) error {
		res.PopulationCorr = mathx.Correlation(change, degraded)
		res.PopChangeDegraded = condMean(degraded, change, 1)
		res.PopNoChangeDegraded = condMean(degraded, change, 0)
		res.SelectedCorr = mathx.Correlation(selChange, selDegraded)
		res.SelChangeDegraded = condMean(selDegraded, selChange, 1)
		res.SelNoChangeDegraded = condMean(selDegraded, selChange, 0)
		return nil
	}, func(ctx context.Context) error {
		// The DAG-side warning §4 wants platforms to surface.
		g := dag.MustParse("R -> T; D -> T")
		res.Warnings = g.SelectionBiasWarnings([]string{"T"})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// colliderScenario builds the symmetric two-transit world and simulates it,
// collecting the per-hour (route changed, degraded, tested) indicators.
func colliderScenario(ctx context.Context, pool parallel.Pool, seed uint64, hours int, change, degraded, tested *[]float64) error {
	// Symmetric world: two equal transits, both in Johannesburg, equal
	// base utilization, so switching between them is performance-neutral.
	b, err := dualTransitBoard(0.4)
	if err != nil {
		return err
	}
	e := engine.New(b.tp, seed, engine.Config{Pool: pool}).Bind(ctx)
	pr := probe.NewProber(e, seed+1)

	// Exogenous route flips: an operator alternates preferred transit at
	// random times, independent of network state.
	flipRNG := mathx.NewRNG(seed + 2)
	cur := topo.ASN(100)
	for h := 10.0; h < float64(hours); h += 20 + 60*flipRNG.Float64() {
		next := topo.ASN(100)
		if cur == 100 {
			next = 101
		}
		e.Schedule(engine.EvSetLocalPref(h, 7000, next, 250))
		e.Schedule(engine.EvSetLocalPref(h, 7000, cur, 100))
		cur = next
	}
	// Congestion bursts on the access links (both, keeping symmetry) to
	// create genuine degradation episodes unrelated to the flips.
	access := append(append([]topo.LinkID(nil), b.rel.Links[7000][100]...), b.rel.Links[7000][101]...)
	crowdPlan{start: 15, dur: uniform{4, 10}, mag: uniform{0.3, 0.25}, gap: uniform{30, 80}}.
		schedule(e.Traffic.AddFlashCrowd, mathx.NewRNG(seed+3), hours, access...)

	um := platform.NewUserModel([]platform.UserPop{{Src: b.src, Dst: 4001, Size: 1}}, seed+4)
	um.BaseRate = 0.08
	um.PerfBoost = 8
	um.ChangeBoost = 10

	var ms []*probe.Measurement
	var obs []platform.StepObservation
	for e.Hour() < float64(hours) {
		if err := e.Step(); err != nil {
			return err
		}
		obs = obs[:0]
		var err error
		if ms, err = um.Step(pr, ms[:0], &obs); err != nil {
			return err
		}
		o := obs[0]
		c, d, tt := 0.0, 0.0, 0.0
		if o.RouteChanged {
			c = 1
		}
		if o.Degradation > 0.15 {
			d = 1
		}
		if o.TestsRun > 0 {
			tt = 1
		}
		*change = append(*change, c)
		*degraded = append(*degraded, d)
		*tested = append(*tested, tt)
	}
	return nil
}

func condMean(y, cond []float64, v float64) float64 {
	var s, n float64
	for i := range y {
		if cond[i] == v {
			s += y[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / n
}

func init() {
	registerOptions("collider", "§3 collider box: speed-test selection bias", HorizonOptions{Hours: 2000},
		func(ctx context.Context, pool parallel.Pool, seed uint64, o HorizonOptions) (*ColliderResult, error) {
			return RunCollider(ctx, pool, seed, o.Hours)
		})
}
