package experiments

import (
	"context"
	"fmt"
	"math"

	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/faults"
	"sisyphus/internal/parallel"
	"sisyphus/internal/pipeline"
)

// ChaosLevel is one point on the degradation curve: the Table 1 pipeline
// rerun with measurement faults injected at the given intensity.
type ChaosLevel struct {
	Intensity float64
	Faults    faults.Config

	// Coverage is delivered/scheduled across every stream in the run.
	Coverage float64
	// Scheduled/Delivered/Failed/Truncated/Duplicated break the ingestion
	// stream down; Scheduled == Delivered + Failed.
	Scheduled, Delivered, Failed, Truncated, Duplicated int

	// Estimated counts treated units that produced an estimate; Collapsed
	// counts units where the donor pool or fit gave out entirely.
	Estimated, Collapsed int
	// DroppedDonors is the total number of donor exclusions by the
	// missing-cell policy, summed over treated units.
	DroppedDonors int

	// MeanAbsError is the mean |estimated − true| RTT change over estimated
	// units — the degradation metric ground truth makes possible. NaN (no
	// estimable unit) marshals as JSON null.
	MeanAbsError NullableFloat
	// MeanPValue averages the placebo p-values over estimated units.
	MeanPValue NullableFloat
	// PValueShift is the mean |p − p₀| against the fault-free level — the
	// paper's inference (is the effect distinguishable from placebo noise?)
	// should be stable long after point estimates start drifting.
	PValueShift NullableFloat
	// MeanUnitCoverage averages per-treated-unit panel coverage.
	MeanUnitCoverage float64
}

// ChaosResult is the full fault-intensity sweep (E15). The ground-truth SCM
// is what lets us certify graceful degradation: the paper can rerun its
// pipeline on messy data, but only a simulator knows how wrong the answers
// became.
type ChaosResult struct {
	Seed   uint64
	Levels []ChaosLevel
}

// Render prints the degradation table.
func (r *ChaosResult) Render() string {
	t := &table{header: []string{
		"intensity", "coverage", "failed", "trunc", "dup", "dropped donors",
		"units est.", "mean |est-true| (ms)", "mean p", "p shift",
	}}
	nf := func(v NullableFloat, format string) string {
		if v.IsNaN() {
			return "-"
		}
		return fmt.Sprintf(format, float64(v))
	}
	for _, l := range r.Levels {
		t.add(
			fmt.Sprintf("%.2f", l.Intensity),
			fmt.Sprintf("%.3f", l.Coverage),
			fmt.Sprintf("%d", l.Failed),
			fmt.Sprintf("%d", l.Truncated),
			fmt.Sprintf("%d", l.Duplicated),
			fmt.Sprintf("%d", l.DroppedDonors),
			fmt.Sprintf("%d/%d", l.Estimated, l.Estimated+l.Collapsed),
			nf(l.MeanAbsError, "%.2f"),
			nf(l.MeanPValue, "%.3f"),
			nf(l.PValueShift, "%.3f"),
		)
	}
	return fmt.Sprintf(`Chaos sweep (E15): Table 1 estimator under injected measurement faults
(drop/truncate/skew/duplicate/reorder/outages scaled together; per-level
fault mix at intensity i: %s)

%s
Reading: estimate error should grow smoothly with intensity while coverage
reporting accounts for exactly the data the estimator lost — graceful
degradation, not silent bias. Units whose donor pool collapses are reported
as such instead of emitting a number.
`, faults.Scaled(0, 1).String(), t.String())
}

// chaosIntensities is the default fault grid E15 sweeps. The top level is
// deliberately brutal — the pipeline must report collapse there, not crash.
var chaosIntensities = []float64{0, 0.05, 0.1, 0.2, 0.4, 0.8}

// ChaosOptions parameterizes the E15 degradation sweep.
type ChaosOptions struct {
	// Weeks and JoinWeek shape the underlying Table 1 world at each level.
	Weeks, JoinWeek int
	// Intensities is the fault grid to sweep (default chaosIntensities).
	// The fault-free base level must come first: p-value shifts are measured
	// against the first level's placebo ranks.
	Intensities []float64
	// ScenarioChoice names the world every level runs on (default
	// scenario.SouthAfricaID). Like Table1Config it is identity, not
	// parameters: it selects which world artifact the levels share.
	ScenarioChoice
}

func (ChaosOptions) experimentOptions() {}

// maxChaosLevels caps ChaosOptions.Intensities: each level derives its
// faulted campaigns and reruns the Table 1 estimator.
const maxChaosLevels = 8

// validate bounds the study length like Table1Config.validate and the fault
// grid at maxChaosLevels.
func (o ChaosOptions) validate() error {
	if len(o.Intensities) > maxChaosLevels {
		return fmt.Errorf("experiments: chaos Intensities has %d levels, cap %d", len(o.Intensities), maxChaosLevels)
	}
	return validateWeeks(o.Weeks)
}

// WithScenario implements ScenarioOptions.
func (o ChaosOptions) WithScenario(id string) Options {
	o.Scenario = id
	return o
}

// chaosDefaults are the registered E15 options.
var chaosDefaults = ChaosOptions{Weeks: 4, JoinWeek: 2, Intensities: chaosIntensities}

// RunChaos sweeps fault intensity and reruns the Table 1 estimator at each
// level, comparing estimates against the simulator's ground truth. Every
// level's campaigns are derived from the same clean simulation (see
// fetchCampaign), so the levels share one draw of measurement noise and
// differ only by their faults. Each
// sweep level is a cancellation barrier (on top of the per-stage barriers
// inside the Table 1 pipeline it drives), so cancelling ctx abandons the
// sweep between levels with ctx.Err().
func RunChaos(ctx context.Context, pool parallel.Pool, seed uint64, o ChaosOptions) (*ChaosResult, error) {
	if len(o.Intensities) == 0 {
		o.Intensities = chaosIntensities
	}
	res := &ChaosResult{Seed: seed}
	var basePValues map[string]float64
	for _, intensity := range o.Intensities {
		if err := pipeline.Guard(ctx, fmt.Sprintf("chaos/level-%.2f", intensity)); err != nil {
			return nil, err
		}
		fc := faults.Scaled(seed+1000, intensity)
		cfg := Table1Config{
			Weeks: o.Weeks, JoinWeek: o.JoinWeek, Seed: seed, Method: synthetic.Robust,
			WithTruth: true, Faults: &fc,
			Retry:          faults.RetryPolicy{MaxAttempts: 2},
			ScenarioChoice: ScenarioChoice{Scenario: o.Scenario},
		}
		t1, err := RunTable1(ctx, pool, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos intensity %.2f: %w", intensity, err)
		}

		level := ChaosLevel{
			Intensity:  intensity,
			Faults:     fc,
			Coverage:   t1.Coverage.Fraction(),
			Scheduled:  t1.Coverage.Scheduled,
			Delivered:  t1.Coverage.Delivered,
			Failed:     t1.Coverage.Failed,
			Truncated:  t1.Coverage.Truncated,
			Duplicated: t1.Coverage.Duplicated,
		}
		var absErrSum, pSum, shiftSum, covSum float64
		var nErr, nP, nShift, nCov int
		pValues := make(map[string]float64)
		for _, row := range t1.Rows {
			if !row.Crossed {
				continue
			}
			level.DroppedDonors += len(row.DroppedDonors)
			covSum += row.Coverage
			nCov++
			if row.EstimateError != "" {
				level.Collapsed++
				continue
			}
			level.Estimated++
			if !row.TrueDelta.IsNaN() {
				absErrSum += math.Abs(row.RTTDelta - float64(row.TrueDelta))
				nErr++
			}
			pValues[row.Unit.String()] = row.PValue
			pSum += row.PValue
			nP++
			if basePValues != nil {
				if p0, ok := basePValues[row.Unit.String()]; ok {
					shiftSum += math.Abs(row.PValue - p0)
					nShift++
				}
			}
		}
		if basePValues == nil {
			basePValues = pValues
		}
		mean := func(sum float64, n int) NullableFloat {
			if n == 0 {
				return NullableFloat(math.NaN())
			}
			return NullableFloat(sum / float64(n))
		}
		level.MeanAbsError = mean(absErrSum, nErr)
		level.MeanPValue = mean(pSum, nP)
		level.PValueShift = mean(shiftSum, nShift)
		if nCov > 0 {
			level.MeanUnitCoverage = covSum / float64(nCov)
		}
		res.Levels = append(res.Levels, level)
	}
	return res, nil
}

func init() {
	registerOptions("chaos", "E15: degradation curves — Table 1 estimator under injected measurement faults",
		chaosDefaults, RunChaos)
}
