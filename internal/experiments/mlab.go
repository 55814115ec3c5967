package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// MLabResult reproduces §3's randomization argument: the M-Lab load
// balancer assigns each test to a random site in the metro, so the
// between-site performance contrast identifies the causal effect of the
// (routing to the) site — a genuine randomized experiment.
type MLabResult struct {
	Tests int
	// Randomized is the difference in mean RTT, site B − site A, from the
	// load-balanced assignment.
	Randomized estimate.Estimate
	// TrueEffect is the simulator's per-hour mean contrast between the two
	// sites measured directly.
	TrueEffect float64
	// SelfSelected is the biased contrast produced when congestion-affected
	// users disproportionately choose site A (no randomization) — the
	// comparison that motivates the load balancer.
	SelfSelected estimate.Estimate
}

// Render prints the comparison.
func (r *MLabResult) Render() string {
	t := &table{header: []string{"assignment", "site-B − site-A RTT (ms)", "SE", "p"}}
	t.add("randomized (load balancer)", fmt.Sprintf("%+.3f", r.Randomized.Effect),
		fmt.Sprintf("%.3f", r.Randomized.SE), fmt.Sprintf("%.3f", r.Randomized.PValue()))
	t.add("self-selected (state-dependent)", fmt.Sprintf("%+.3f", r.SelfSelected.Effect),
		fmt.Sprintf("%.3f", r.SelfSelected.SE), fmt.Sprintf("%.3f", r.SelfSelected.PValue()))
	t.add("GROUND TRUTH contrast", fmt.Sprintf("%+.3f", r.TrueEffect), "-", "-")
	return fmt.Sprintf("M-Lab randomization (§3): load-balanced server assignment as an RCT\n(%d tests)\n\n%s", r.Tests, t.String())
}

// RunMLab simulates a metro with two M-Lab sites hosted in different ASes.
// Site B's host sits behind a periodically congested transit. Randomized
// assignment recovers the true routing contrast; self-selected assignment
// (users on congested paths prefer site A) is biased. The world comes from
// o.Scenario (default the South Africa world) and must cast an M-Lab metro
// (scenario.MLabCast).
func RunMLab(ctx context.Context, pool parallel.Pool, seed uint64, o WorldOptions) (*MLabResult, error) {
	hours := o.Hours
	if hours <= 0 {
		hours = 1200
	}
	res := &MLabResult{}
	var sim *mlabSim
	var fr, fs *data.Frame
	err := stagedRun(ctx, "mlab", func(ctx context.Context) error {
		var err error
		sim, err = mlabScenario(ctx, pool, scenarioOr(o.Scenario), seed, hours)
		return err
	}, func(ctx context.Context) error {
		var err error
		if fr, err = data.FromColumns(map[string][]float64{"site": sim.randSite, "rtt": sim.randRTT}); err != nil {
			return err
		}
		fs, err = data.FromColumns(map[string][]float64{"site": sim.selfSite, "rtt": sim.selfRTT})
		return err
	}, func(ctx context.Context) error {
		var err error
		res.Tests = len(sim.randSite) + len(sim.selfSite)
		res.TrueEffect = sim.trueSum / float64(sim.trueN)
		if res.Randomized, err = estimate.NaiveAssociation(fr, "site", "rtt"); err != nil {
			return err
		}
		res.Randomized.Method = "randomized difference in means"
		if res.SelfSelected, err = estimate.NaiveAssociation(fs, "site", "rtt"); err != nil {
			return err
		}
		res.SelfSelected.Method = "self-selected difference in means"
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mlabSim holds the raw per-hour test outcomes from the two assignment arms
// plus the direct-measurement ground truth.
type mlabSim struct {
	randSite, randRTT []float64
	selfSite, selfRTT []float64
	trueSum           float64
	trueN             int
}

// mlabScenario builds the cast metro with a periodically congested site-B
// transit and simulates both assignment arms hour by hour. The world must
// cast an M-Lab metro (scenario.MLabCast) with two server ASes.
func mlabScenario(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, hours int) (*mlabSim, error) {
	s, rib, err := fetchWorld(ctx, pool, scenarioID)
	if err != nil {
		return nil, err
	}
	cast, err := s.RequireMLab()
	if err != nil {
		return nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
	}
	e := engine.New(s.Topo, seed, engine.Config{Pool: pool, InitialRIB: rib}).Bind(ctx)
	pr := probe.NewProber(e, seed+1)

	// Congest the site-B side periodically.
	rel, err := s.Topo.Relationships()
	if err != nil {
		return nil, err
	}
	hostBLink, err := cast.CongestedUplink.Resolve(rel)
	if err != nil {
		return nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
	}
	crowdPlan{start: 12, dur: uniform{8, 8}, mag: uniform{0.3, 0.2}, gap: uniform{30, 40}}.
		schedule(e.Traffic.AddFlashCrowd, mathx.NewRNG(seed+2), hours, hostBLink)

	var servers []topo.PoPID
	for _, asn := range s.MLabServerASNs {
		id, err := s.Topo.FindPoP(asn, cast.ServerCity)
		if err != nil {
			return nil, err
		}
		servers = append(servers, id)
	}
	lb, err := platform.NewMLabPool("metro", servers, seed+3)
	if err != nil {
		return nil, err
	}
	user, err := s.Topo.FindPoP(cast.UserASN, cast.UserCity)
	if err != nil {
		return nil, err
	}

	selRNG := mathx.NewRNG(seed + 4)
	sim := &mlabSim{}
	for e.Hour() < float64(hours) {
		if err := e.Step(); err != nil {
			return nil, err
		}
		// Randomized arm: one LB-assigned test per hour.
		m, idx, err := lb.RunTest(pr, user)
		if err != nil {
			return nil, err
		}
		sim.randSite = append(sim.randSite, float64(idx))
		sim.randRTT = append(sim.randRTT, m.RTTms)

		// Ground truth: measure both sites directly this hour.
		pa, err := e.Perf(user, servers[0])
		if err != nil {
			return nil, err
		}
		pb, err := e.Perf(user, servers[1])
		if err != nil {
			return nil, err
		}
		sim.trueSum += pb.RTTms - pa.RTTms
		sim.trueN++

		// Self-selected arm: when site B's path is congested, users mostly
		// pick site A ("the one that works"), else uniform. This couples
		// assignment to network state, destroying exogeneity.
		var pick int
		if pb.MaxUtil > 0.7 {
			if selRNG.Bernoulli(0.85) {
				pick = 0
			} else {
				pick = 1
			}
		} else {
			pick = selRNG.Intn(2)
		}
		sm, err := pr.SpeedTestTo(user, servers[pick], probe.IntentUserInitiated, "self-select")
		if err != nil {
			return nil, err
		}
		sim.selfSite = append(sim.selfSite, float64(pick))
		sim.selfRTT = append(sim.selfRTT, sm.RTTms)
	}
	return sim, nil
}

func init() {
	registerOptions("mlab", "§3 randomization: M-Lab load balancing as a randomized experiment",
		WorldOptions{Hours: 1200}, RunMLab)
}
