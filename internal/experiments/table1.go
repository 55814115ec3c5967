package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sisyphus/internal/netsim/topo"

	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/faults"
	"sisyphus/internal/ixp"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// Table1Config parameterizes the IXP case study.
type Table1Config struct {
	Weeks     int     // total study length (default 6)
	JoinWeek  int     // week the treated ASes join the exchange (default 3)
	BinHours  float64 // panel bin width (default 12)
	Method    synthetic.Method
	Seed      uint64
	UserRate  float64 // user-initiated tests per hour per unit (default 0.25)
	WithTruth bool    // also run the no-join counterfactual world (slower)
	// AlsoJoin lists donor ASNs that also join the exchange mid-study —
	// contamination the analysis must detect (by hop matching) and exclude
	// from the donor pool, per Abadie's no-interference condition.
	AlsoJoin []topo.ASN
	// FlapLink schedules an unrelated link to flap (down 6h, up again)
	// every FlapEveryHours starting at hour 100 — background churn the
	// estimator has to shrug off. Zero disables.
	FlapLink       topo.LinkID
	FlapEveryHours float64
	// ScenarioChoice names the world to run on (default
	// scenario.SouthAfricaID); the trombone-era experiment sets
	// scenario.TromboneEraID to run the identical pipeline on the
	// historical topology. The id participates in the artifact key, not the
	// serialized result (which predates the field), so it is omitted from
	// JSON (the embedded field is `json:"-"`).
	ScenarioChoice
	// Faults, when non-nil, degrades the campaign's measurements with this
	// fault configuration (probe drops, vantage outages, truncation,
	// timestamp skew, duplicate/reordered delivery), derived from the clean
	// campaign by faults.Apply. A non-nil config with every rate zero
	// produces output bit-identical to nil — the graceful-degradation
	// baseline E15 certifies.
	Faults *faults.Config
	// Retry bounds per-probe retries when faults are injected (zero value:
	// one attempt, no retry).
	Retry faults.RetryPolicy
	// MinCoverage is the panel missing-cell policy threshold: donors whose
	// observed-bin fraction falls below it are dropped from the donor pool
	// (0 uses the synthetic package default of 0.5). The treated unit is
	// never dropped; its coverage is reported on its row instead.
	MinCoverage float64
}

// experimentOptions marks Table1Config as the typed options for the table1
// experiment (the did, chaos, and trombone-era experiments reuse the struct
// with their own defaults).
func (Table1Config) experimentOptions() {}

// Bounds on a Table 1 world's knobs, each well past its default and every
// committed caller: a study of at most a year of weekly campaigns (both
// Table1Config and ChaosOptions Weeks), at most 4 user tests per hour per
// unit (default 0.25), panel bins of 1 to 48 hours (default 12), and link
// flaps at most every 12 hours (a flap holds its link down for 6).
const (
	maxStudyWeeks     = 52
	maxUserRate       = 4.0
	minBinHours       = 1.0
	maxBinHours       = 48.0
	minFlapEveryHours = 12.0
)

// Bounds on the fault knobs, each well past the chaos grid's top level
// (faults.Scaled at intensity 1, two attempts per probe); rates are
// probabilities. faults.Apply's cost scales with attempts and outage
// windows. An OutageMeanHours of 0 still means the 24-hour default.
const (
	maxRetryAttempts      = 8
	maxSkewStdHours       = 24.0
	maxOutagesPerKiloHour = 100.0
	minOutageMeanHours    = 1.0
)

// validate applies the bounds above. Zero or less still means the default
// for Weeks, UserRate and BinHours, and no flaps for FlapEveryHours.
func (c Table1Config) validate() error {
	switch {
	case c.UserRate > maxUserRate:
		return fmt.Errorf("experiments: UserRate %g above the %g cap", c.UserRate, maxUserRate)
	case c.BinHours > 0 && (c.BinHours < minBinHours || c.BinHours > maxBinHours):
		return fmt.Errorf("experiments: BinHours %g outside [%g, %g]", c.BinHours, minBinHours, maxBinHours)
	case c.FlapEveryHours > 0 && c.FlapEveryHours < minFlapEveryHours:
		return fmt.Errorf("experiments: FlapEveryHours %g below the %g-hour floor", c.FlapEveryHours, minFlapEveryHours)
	case c.Retry.MaxAttempts < 0 || c.Retry.MaxAttempts > maxRetryAttempts:
		return fmt.Errorf("experiments: Retry.MaxAttempts %d outside [0, %d]", c.Retry.MaxAttempts, maxRetryAttempts)
	}
	if f := c.Faults; f != nil {
		for _, r := range []struct {
			name   string
			v, max float64
		}{
			{"DropRate", f.DropRate, 1},
			{"TruncateRate", f.TruncateRate, 1},
			{"DuplicateRate", f.DuplicateRate, 1},
			{"ReorderRate", f.ReorderRate, 1},
			{"TimestampSkewStdHours", f.TimestampSkewStdHours, maxSkewStdHours},
			{"OutagesPerKiloHour", f.OutagesPerKiloHour, maxOutagesPerKiloHour},
		} {
			if !(r.v >= 0 && r.v <= r.max) {
				return fmt.Errorf("experiments: Faults.%s %g outside [0, %g]", r.name, r.v, r.max)
			}
		}
		if f.OutageMeanHours != 0 && !(f.OutageMeanHours >= minOutageMeanHours) {
			return fmt.Errorf("experiments: Faults.OutageMeanHours %g below the %g-hour floor", f.OutageMeanHours, minOutageMeanHours)
		}
	}
	return validateWeeks(c.Weeks)
}

// validateWeeks rejects a study length above maxStudyWeeks.
func validateWeeks(weeks int) error {
	if weeks > maxStudyWeeks {
		return fmt.Errorf("experiments: Weeks %d above the %d-week cap", weeks, maxStudyWeeks)
	}
	return nil
}

// WithScenario implements ScenarioOptions.
func (c Table1Config) WithScenario(id string) Options {
	c.Scenario = id
	return c
}

func (c Table1Config) withDefaults() Table1Config {
	if c.Weeks <= 0 {
		c.Weeks = 6
	}
	if c.JoinWeek <= 0 {
		c.JoinWeek = 3
	}
	if c.BinHours <= 0 {
		c.BinHours = 12
	}
	if c.UserRate <= 0 {
		c.UserRate = 0.25
	}
	if c.Scenario == "" {
		c.Scenario = scenario.SouthAfricaID
	}
	return c
}

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	Unit      scenario.Unit
	RTTDelta  float64 // estimated RTT change (ATT) in ms
	RMSERatio float64
	PValue    float64
	PreRMSE   float64
	// TrueDelta is the simulator's ground-truth effect from counterfactual
	// replay (only populated when WithTruth); the paper cannot have this
	// column — it is the point of building the estimators on a simulator.
	// NaN (no post-treatment samples in one of the worlds) marshals as
	// JSON null.
	TrueDelta NullableFloat
	// Crossed reports whether the IXP was ever detected on the unit's path.
	Crossed bool
	// Coverage is the fraction of panel bins backed by at least one real
	// measurement for this unit (1.0 on a clean run); the estimate above
	// stood on exactly this much data.
	Coverage float64
	// DroppedDonors lists donor units excluded by the missing-cell policy
	// for this unit's panel (under-covered under fault injection).
	DroppedDonors []string
	// EstimateError records why no estimate could be produced under heavy
	// degradation (e.g. the donor pool collapsed); numeric fields are zero.
	EstimateError string `json:",omitempty"`
	// SkippedPlacebos lists donor units whose placebo fit failed for this
	// unit's test; each one was counted conservatively (as extreme) in
	// PValue, so a nonzero count here flags a p-value that is an upper
	// bound rather than an exact placebo rank.
	SkippedPlacebos []string
	// Detail holds the full fitted synthetic control for the unit (donor
	// weights, trajectories) for verbose rendering; nil if never crossed.
	Detail *synthetic.Result `json:"-"`
}

// Table1Result is the full reproduction of Table 1.
type Table1Result struct {
	Config      Table1Config
	Rows        []Table1Row
	JoinHour    float64
	NumDonors   int
	SampleCount int
	// Coverage summarizes the ingestion stream: scheduled vs delivered vs
	// failed/truncated/duplicated records across all intents. On a clean
	// run Scheduled == Delivered.
	Coverage platform.StreamCoverage
}

// Render prints the table in the paper's format.
func (r *Table1Result) Render() string {
	t := &table{header: []string{"ASN / City", "RTT Δ (ms)", "RMSE Ratio", "p", "skipped", "true Δ (ms)"}}
	for _, row := range r.Rows {
		trueCol := "-"
		if r.Config.WithTruth {
			trueCol = fmt.Sprintf("%+.2f", row.TrueDelta)
		}
		t.add(
			fmt.Sprintf("%d / %s", row.Unit.ASN, row.Unit.City),
			fmt.Sprintf("%+.2f", row.RTTDelta),
			fmt.Sprintf("%.2f", row.RMSERatio),
			fmt.Sprintf("%.3f", row.PValue),
			fmt.Sprintf("%d", len(row.SkippedPlacebos)),
			trueCol,
		)
	}
	head := fmt.Sprintf("Table 1: estimated RTT change for paths that begin crossing NAPAfrica-JNB\n(%s synthetic control, %d donors, %d user-initiated tests, join at hour %.0f)\n\n",
		r.Config.Method, r.NumDonors, r.SampleCount, r.JoinHour)
	return head + t.String()
}

// RunTable1 executes the full pipeline of the paper's case study against the
// simulated South Africa: run six weeks of user-initiated speed tests with
// triggered traceroutes, detect the first IXP appearance per ⟨ASN, city⟩ by
// hop matching, estimate each unit's RTT change with robust synthetic
// control against the never-treated donor pool, and compute placebo-based
// p-values.
//
// The run is four pipeline stages — Scenario (simulate the worlds and
// collect measurements), Dataset (hop matching, donor-panel extraction),
// Estimator (per-unit synthetic control and placebo inference), Report
// (result assembly) — each a cancellation barrier: cancelling ctx surfaces
// ctx.Err() within one stage boundary, and the Scenario's campaign
// simulation stops within one simulated hour (engine.Step is its barrier).
// Placebo fits shard across pool.
func RunTable1(ctx context.Context, pool parallel.Pool, cfg Table1Config) (*Table1Result, error) {
	cfg = cfg.withDefaults()
	totalHours := float64(cfg.Weeks) * 7 * 24
	joinHour := float64(cfg.JoinWeek) * 7 * 24

	// Campaign simulation lives behind the artifact layer: the factual and
	// counterfactual worlds are campaign artifacts keyed by ⟨scenario id,
	// seed, campaign params⟩, so suite runs that agree on those coordinates
	// (DiD's re-analysis, the trombone-era modern arm, the fault-free chaos
	// level) share one simulation instead of re-running it.
	collect := func(ctx context.Context, withJoin bool) (*scenario.World, *platform.Store, error) {
		return fetchCampaign(ctx, pool, cfg.Scenario, cfg.Seed, campaignParamsFrom(cfg, withJoin))
	}

	var (
		s                 *scenario.World
		store, truthStore *platform.Store // truthStore is nil unless cfg.WithTruth
		matcher           *ixp.Matcher
		byUnit            map[scenario.Unit][]*probe.Measurement
		donorNames        []string
		donorSeries       [][]float64
		donorMasks        [][]bool
		rows              []Table1Row
	)
	// The observation mask of a series over the panel's bins: which bins
	// were backed by real measurements.
	nBins := int(totalHours / cfg.BinHours)
	observedMask := func(empty []int) []bool {
		mask := make([]bool, nBins)
		for i := range mask {
			mask[i] = true
		}
		for _, b := range empty {
			mask[b] = false
		}
		return mask
	}
	var res *Table1Result
	err := stagedRun(ctx, "table1", func(ctx context.Context) error {
		var err error
		if s, store, err = collect(ctx, true); err != nil {
			return err
		}
		if cfg.WithTruth {
			// Ground-truth counterfactual world (identical seeds, no joins).
			_, truthStore, err = collect(ctx, false)
		}
		return err
	}, func(ctx context.Context) error {
		var err error
		if matcher, err = ixp.FromTopology(s.Topo, s.IXPName); err != nil {
			return err
		}
		// Group measurements per unit (analysis-side: only measurement
		// fields).
		byUnit = make(map[scenario.Unit][]*probe.Measurement)
		for _, m := range store.All() {
			u := scenario.Unit{ASN: m.SrcASN, City: m.SrcCity}
			byUnit[u] = append(byUnit[u], m)
		}
		// Donor pool: units whose paths never cross the exchange. Alongside
		// each trajectory keep its observation mask, so the panel's
		// missing-cell policy can weigh donors by coverage instead of
		// trusting interpolation blindly.
		for _, u := range s.Donors {
			if _, crossed := matcher.FirstCrossingHour(byUnit[u]); crossed {
				continue // contaminated donor: exclude per Abadie's conditions
			}
			series, empty := platform.MedianRTTSeries(byUnit[u], platform.Unit{ASN: u.ASN, City: u.City}, 0, totalHours, cfg.BinHours)
			donorNames = append(donorNames, u.String())
			donorSeries = append(donorSeries, series)
			donorMasks = append(donorMasks, observedMask(empty))
		}
		if len(donorNames) < 3 {
			return fmt.Errorf("experiments: only %d clean donors", len(donorNames))
		}
		return nil
	}, func(ctx context.Context) error {
		times := make([]float64, nBins)
		for i := range times {
			times[i] = float64(i) * cfg.BinHours
		}
		faulty := cfg.Faults != nil && cfg.Faults.Enabled()
		placebos := newSharedPlacebos(synthetic.Config{Method: cfg.Method, Pool: pool})
		for _, u := range s.Treated {
			if err := ctx.Err(); err != nil {
				return err
			}
			row := Table1Row{Unit: u}
			firstHour, crossed := matcher.FirstCrossingHour(byUnit[u])
			row.Crossed = crossed
			if !crossed {
				rows = append(rows, row)
				continue
			}
			t0 := int(firstHour / cfg.BinHours)
			if t0 < 4 {
				t0 = 4
			}
			if t0 > nBins-2 {
				t0 = nBins - 2
			}
			treatedSeries, treatedEmpty := platform.MedianRTTSeries(byUnit[u], platform.Unit{ASN: u.ASN, City: u.City}, 0, totalHours, cfg.BinHours)

			units := append([]string{u.String()}, donorNames...)
			y := mathx.NewMatrix(len(units), nBins)
			y.SetRow(0, treatedSeries)
			observed := make([][]bool, 0, len(units))
			observed = append(observed, observedMask(treatedEmpty))
			for i, dn := range donorSeries {
				y.SetRow(i+1, dn)
				observed = append(observed, donorMasks[i])
			}
			masked, err := synthetic.NewMaskedPanel(units, times, y, observed)
			if err != nil {
				return err
			}
			panel, coverage, err := masked.Apply(synthetic.MissingPolicy{
				MinCoverage: cfg.MinCoverage, KeepUnits: []string{u.String()},
			})
			row.Coverage = coverage[0].Fraction() // treated unit is row 0
			for _, c := range coverage[1:] {
				if c.Dropped {
					row.DroppedDonors = append(row.DroppedDonors, c.Unit)
				}
			}
			if err == nil {
				var pl *synthetic.PlaceboResult
				pl, err = placebos.test(ctx, panel, u.String(), t0)
				if err == nil {
					row.RTTDelta = pl.Treated.ATT
					row.RMSERatio = pl.Treated.RMSERatio
					row.PValue = pl.PValue
					row.PreRMSE = pl.Treated.PreRMSE
					row.SkippedPlacebos = pl.Skipped
					row.Detail = pl.Treated
				}
			}
			if err != nil {
				// Cancellation is never a per-unit finding: it aborts the
				// stage no matter how degraded the run is.
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return err
				}
				// Under heavy degradation the donor pool (or the fit) can
				// collapse; that is a finding for the chaos sweep, not a
				// crash. On clean runs any estimator failure stays fatal.
				if !faulty {
					return fmt.Errorf("experiments: unit %v: %w", u, err)
				}
				row.EstimateError = err.Error()
			}

			if cfg.WithTruth {
				row.TrueDelta = trueDelta(byUnit[u], truthStore, u, firstHour, totalHours)
			}
			rows = append(rows, row)
		}
		return nil
	}, func(ctx context.Context) error {
		res = &Table1Result{Config: cfg, Rows: rows, JoinHour: joinHour,
			NumDonors:   len(donorNames),
			SampleCount: store.Len(), Coverage: store.TotalCoverage()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sharedPlacebos is one Table 1 estimator stage's placebo donor sides, one
// per t0. Every treated unit's panel holds the same donor rows:
// MaskedPanel.Apply drops and imputes each row on that row's own mask, and
// the treated unit is kept regardless. Removing the treated unit therefore
// leaves the same donor panel for every unit of the stage, and the donor
// side of its placebo test depends on t0 alone.
type sharedPlacebos struct {
	cfg  synthetic.Config
	byT0 map[int]placebosAt
}

// placebosAt is one t0's donor side, or the error fitting it returned.
type placebosAt struct {
	pl  *synthetic.Placebos
	err error
}

func newSharedPlacebos(cfg synthetic.Config) *sharedPlacebos {
	return &sharedPlacebos{cfg: cfg, byT0: make(map[int]placebosAt)}
}

// test is synthetic.PlaceboTest with the donor side fit once per t0, in the
// same order: the real fit first, then the donor side, fit the first time
// its t0 is needed. A failed donor side is remembered and its error returned
// for every later unit at that t0 (a cancelled one too: cancellation aborts
// the stage, so nothing asks again).
func (s *sharedPlacebos) test(ctx context.Context, panel *synthetic.Panel, unit string, t0 int) (*synthetic.PlaceboResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	real, err := synthetic.Fit(panel, unit, t0, s.cfg)
	if err != nil {
		return nil, err
	}
	at, ok := s.byT0[t0]
	if !ok {
		at.pl, at.err = synthetic.FitPlacebos(ctx, panel, unit, t0, s.cfg)
		s.byT0[t0] = at
	}
	if at.err != nil {
		return nil, at.err
	}
	return at.pl.Test(ctx, real), nil
}

// trueDelta compares post-treatment median true RTT between the factual
// (joined) measurements and the counterfactual (never-joined) world. Failed
// records carry no truth and are skipped; NaN (no samples in one world)
// marshals as JSON null.
func trueDelta(factual []*probe.Measurement, truth *platform.Store, u scenario.Unit, fromHour, toHour float64) NullableFloat {
	var fact, cf []float64
	for _, m := range factual {
		if !m.Failed && m.Hour >= fromHour && m.Hour < toHour {
			fact = append(fact, m.TrueRTTms)
		}
	}
	for _, m := range truth.All() {
		if !m.Failed && m.SrcASN == u.ASN && m.SrcCity == u.City && m.Hour >= fromHour && m.Hour < toHour {
			cf = append(cf, m.TrueRTTms)
		}
	}
	if len(fact) == 0 || len(cf) == 0 {
		return NullableFloat(math.NaN())
	}
	return NullableFloat(mathx.Median(fact) - mathx.Median(cf))
}

func init() {
	registerOptions("table1", "Table 1: RTT change for ⟨ASN,city⟩ pairs that begin crossing NAPAfrica-JNB",
		Table1Config{Method: synthetic.Robust, WithTruth: true},
		func(ctx context.Context, pool parallel.Pool, seed uint64, o Table1Config) (*Table1Result, error) {
			o.Seed = seed
			return RunTable1(ctx, pool, o)
		})
}
