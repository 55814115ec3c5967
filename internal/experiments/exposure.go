package experiments

import (
	"context"
	"fmt"
	"sort"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// ExposureRow summarizes one candidate failure.
type ExposureRow struct {
	Link string
	// Exposure is the static count of unit→content pairs whose current
	// path crosses the link (what Xaminer-style analysis reports).
	Exposure int
	// Unreachable is how many pairs actually lose connectivity after BGP
	// reconverges around the failure.
	Unreachable int
	// MeanRTTShift is the average RTT change (ms) among pairs that remain
	// reachable (the *impact* after adaptation).
	MeanRTTShift float64
}

// ExposureResult reproduces the §3 Xaminer box: exposure (who crosses the
// failed component) is not impact (what happens after routing adapts).
type ExposureResult struct {
	Pairs int
	Rows  []ExposureRow
	// RankFlips counts link pairs ordered differently by exposure vs by
	// impact — the quantitative sense in which "exposure ≠ impact".
	RankFlips int
}

// Render prints the sweep.
func (r *ExposureResult) Render() string {
	t := &table{header: []string{"failed link", "exposure (paths)", "unreachable after reconvergence", "mean RTT shift (ms)"}}
	for _, row := range r.Rows {
		t.add(row.Link, fmt.Sprintf("%d", row.Exposure), fmt.Sprintf("%d", row.Unreachable),
			fmt.Sprintf("%+.2f", row.MeanRTTShift))
	}
	return fmt.Sprintf("Exposure vs impact (§3 Xaminer box): cable-cut sweep over %d unit→content pairs\n(%d link pairs rank differently under exposure vs impact)\n\n%s",
		r.Pairs, r.RankFlips, t.String())
}

// ExposureOptions parameterizes the cable-cut sweep: just the world to run
// on. The candidate failures come from the world's failure-candidate cast.
type ExposureOptions struct {
	ScenarioChoice
}

func (ExposureOptions) experimentOptions() {}

// WithScenario implements ScenarioOptions.
func (o ExposureOptions) WithScenario(id string) Options {
	o.Scenario = id
	return o
}

// RunExposure sweeps the world's cast candidate link failures. For each:
// static exposure = paths crossing the link now; dynamic impact =
// reachability and RTT after the control plane reconverges without it. The
// world comes from o.Scenario (default the South Africa world) and must
// cast at least two failure candidates.
func RunExposure(ctx context.Context, pool parallel.Pool, seed uint64, o ExposureOptions) (*ExposureResult, error) {
	type pair struct {
		src topo.PoPID
		u   scenario.Unit
	}
	type candidate struct {
		name string
		id   topo.LinkID
	}
	scenarioID := scenarioOr(o.Scenario)
	res := &ExposureResult{}
	var s *scenario.World
	var e *engine.Engine
	var dst topo.ASN
	var pairs []pair
	var candidates []candidate
	paths := make(map[topo.PoPID]*bgp.Path)
	baseRTT := make(map[topo.PoPID]float64)
	err := stagedRun(ctx, "exposure", func(ctx context.Context) error {
		s2, rib, err := fetchWorld(ctx, pool, scenarioID)
		if err != nil {
			return err
		}
		s = s2
		if _, err := s.RequireFailureCandidates(); err != nil {
			return fmt.Errorf("experiments: world %q: %w", scenarioID, err)
		}
		dst = s.MeasureDst()
		e = engine.New(s.Topo, seed, engine.Config{Pool: pool, InitialRIB: rib}).Bind(ctx)
		if err := e.RunUntil(12); err != nil {
			return err
		}
		// Materialize the converged RIB before the static snapshot, exactly
		// as an exposure analysis would.
		_, err = e.RIB()
		return err
	}, func(ctx context.Context) error {
		// The measurement pairs: every unit to the content target, with their
		// pre-failure paths and RTTs — the static view exposure analysis has.
		for _, u := range s.AllUnits() {
			src, err := s.UserPoP(u)
			if err != nil {
				return err
			}
			pairs = append(pairs, pair{src, u})
		}
		for _, p := range pairs {
			perf, err := e.PerfToAS(p.src, dst)
			if err != nil {
				return err
			}
			paths[p.src] = perf.Path
			baseRTT[p.src] = perf.RTTms
		}
		// Candidate failures: the world's cast list, resolved to link ids.
		rel, err := s.Topo.Relationships()
		if err != nil {
			return err
		}
		fcs, err := s.RequireFailureCandidates()
		if err != nil {
			return fmt.Errorf("experiments: world %q: %w", scenarioID, err)
		}
		for _, fc := range fcs {
			id, err := fc.Link.Resolve(rel)
			if err != nil {
				return fmt.Errorf("experiments: world %q: candidate %q: %w", scenarioID, fc.Name, err)
			}
			candidates = append(candidates, candidate{fc.Name, id})
		}
		res.Pairs = len(pairs)
		return nil
	}, func(ctx context.Context) error {
		for _, cand := range candidates {
			// Each candidate failure forces a reconvergence toward the
			// content AS; check between them so cancellation lands within
			// one sweep entry.
			if err := ctx.Err(); err != nil {
				return err
			}
			row := ExposureRow{Link: cand.name}
			for _, p := range pairs {
				if paths[p.src].CrossesLink(cand.id) {
					row.Exposure++
				}
			}
			// Measure actual impact with the link failed: a what-if, so
			// the candidate converges once and every pair after the first
			// reads the memoized fixed point.
			deny := func(pol *bgp.Policy) { pol.DenyLink[cand.id] = true }
			var shiftSum float64
			var shiftN int
			for _, p := range pairs {
				perf, err := e.PerfToASWith(p.src, dst, deny)
				if err != nil {
					row.Unreachable++
					continue
				}
				shiftSum += perf.RTTms - baseRTT[p.src]
				shiftN++
			}
			if shiftN > 0 {
				row.MeanRTTShift = shiftSum / float64(shiftN)
			}
			res.Rows = append(res.Rows, row)
		}
		return nil
	}, func(ctx context.Context) error {
		// Count rank inversions between the exposure ordering and an impact
		// ordering (unreachable count, then RTT shift).
		impactLess := func(a, b ExposureRow) bool {
			if a.Unreachable != b.Unreachable {
				return a.Unreachable < b.Unreachable
			}
			return a.MeanRTTShift < b.MeanRTTShift
		}
		for i := 0; i < len(res.Rows); i++ {
			for j := i + 1; j < len(res.Rows); j++ {
				a, b := res.Rows[i], res.Rows[j]
				expLess := a.Exposure < b.Exposure
				if a.Exposure != b.Exposure && expLess != impactLess(a, b) {
					res.RankFlips++
				}
			}
		}
		sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Exposure > res.Rows[j].Exposure })
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func init() {
	registerOptions("exposure", "§3 Xaminer box: static exposure vs post-reconvergence impact",
		ExposureOptions{}, RunExposure)
}
