package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
)

// DiDResult contrasts difference-in-differences with synthetic control on
// the Table 1 world: DiD pools all treated units against all donors with a
// parallel-trends assumption; synthetic control builds a tailored donor
// combination per unit. Both should land near the ground-truth average
// effect in this world (where trends are near-parallel by construction);
// DiD is what breaks first when donors follow different trend mixes, which
// is the paper's reason for preferring SC.
type DiDResult struct {
	// TestCount is the number of speed tests in the panel. The JSON name
	// stays "Samples" (the field's pre-Sampler name) so the served and
	// golden documents are byte-identical; the Go name moved aside for the
	// Samples() projection method.
	TestCount int `json:"Samples"`
	// PooledDiD is the one-number average IXP effect from a 2×2 DiD.
	PooledDiD estimate.Estimate
	// SCAverage is the average per-unit synthetic-control ATT.
	SCAverage float64
	// TrueAverage is the simulator's average ground-truth effect.
	TrueAverage float64
}

// Render prints the comparison.
func (r *DiDResult) Render() string {
	t := &table{header: []string{"estimator", "average IXP effect on RTT (ms)", "SE"}}
	t.add("pooled 2×2 difference-in-differences", fmt.Sprintf("%+.3f", r.PooledDiD.Effect), fmt.Sprintf("%.3f", r.PooledDiD.SE))
	t.add("synthetic control (mean per-unit ATT)", fmt.Sprintf("%+.3f", r.SCAverage), "-")
	t.add("GROUND TRUTH (mean true Δ)", fmt.Sprintf("%+.3f", r.TrueAverage), "-")
	return fmt.Sprintf("DiD vs synthetic control on the Table 1 world\n(%d speed tests)\n\n%s", r.TestCount, t.String())
}

// DiDOptions parameterizes the DiD-vs-SC contrast: just the world to run
// the Table 1 campaign on.
type DiDOptions struct {
	ScenarioChoice
}

func (DiDOptions) experimentOptions() {}

// WithScenario implements ScenarioOptions.
func (o DiDOptions) WithScenario(id string) Options {
	o.Scenario = id
	return o
}

// RunDiD executes Table 1's data collection once and analyzes it two ways.
// The world comes from o.Scenario (default the South Africa world); any
// world Table 1 runs on works here too.
func RunDiD(ctx context.Context, pool parallel.Pool, seed uint64, o DiDOptions) (*DiDResult, error) {
	// Classic (Frank–Wolfe) SC: its simplex weights average the donors, the
	// per-unit counterpart of DiD's equal-weight donor pool.
	cfg := Table1Config{
		Weeks: 4, JoinWeek: 2, Seed: seed, Method: synthetic.Classic, WithTruth: true,
		ScenarioChoice: ScenarioChoice{Scenario: o.Scenario},
	}
	t1, err := RunTable1(ctx, pool, cfg)
	if err != nil {
		return nil, err
	}
	var scSum, truthSum float64
	var n int
	for _, row := range t1.Rows {
		if !row.Crossed {
			continue
		}
		scSum += row.RTTDelta
		truthSum += float64(row.TrueDelta)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("experiments: no treated units crossed")
	}

	// Re-fetch the same world's measurements for the DiD panel: the factual
	// campaign Table 1 just analyzed, by the same artifact key (same seeds
	// ⇒ identical data), so with the cache on this is a pure hit.
	wd := cfg.withDefaults()
	joinHour := float64(wd.JoinWeek) * 7 * 24
	s, store, err := fetchCampaign(ctx, pool, wd.Scenario, wd.Seed, campaignParamsFrom(wd, true))
	if err != nil {
		return nil, err
	}

	treatedSet := make(map[scenario.Unit]bool)
	for _, u := range s.Treated {
		treatedSet[u] = true
	}
	var group, post, y []float64
	for _, m := range store.All() {
		u := scenario.Unit{ASN: m.SrcASN, City: m.SrcCity}
		g := 0.0
		if treatedSet[u] {
			g = 1
		}
		p := 0.0
		if m.Hour >= joinHour {
			p = 1
		}
		group = append(group, g)
		post = append(post, p)
		y = append(y, m.RTTms)
	}
	f, err := data.FromColumns(map[string][]float64{"g": group, "p": post, "y": y})
	if err != nil {
		return nil, err
	}
	did, err := estimate.DifferenceInDifferences(f, "g", "p", "y")
	if err != nil {
		return nil, err
	}
	return &DiDResult{
		TestCount:   store.Len(),
		PooledDiD:   did,
		SCAverage:   scSum / float64(n),
		TrueAverage: truthSum / float64(n),
	}, nil
}

func init() {
	registerOptions("did", "methodological contrast: pooled DiD vs per-unit synthetic control on Table 1 data",
		DiDOptions{}, RunDiD)
}
