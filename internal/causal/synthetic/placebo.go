package synthetic

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sisyphus/internal/mathx"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// PlaceboResult carries the inference produced by in-space placebo tests,
// exactly the procedure behind Table 1's p column: refit the estimator
// pretending each untreated donor was treated at the same time, and rank the
// real unit's RMSE ratio among the placebo ratios.
type PlaceboResult struct {
	Treated *Result
	// Ratios holds each placebo unit's post/pre RMSE ratio.
	Ratios map[string]float64
	// PValue is the rank-based p-value: the fraction of units (placebos plus
	// the treated unit itself) whose RMSE ratio is at least the treated
	// unit's. Small values mean the treated unit's post-period divergence
	// would be unusual under "no effect anywhere".
	//
	// Skipped placebo units are counted conservatively: each one enters the
	// denominator AND the "at least as extreme" numerator, as if its ratio
	// had exceeded the treated unit's. Donors whose fit degenerates (zero
	// pre-period variance, NaN ratios) are precisely the ones whose placebo
	// ratio could have been arbitrarily large, so dropping them — as this
	// code once did — silently deflated Table 1's p column whenever the
	// donor pool contained degenerate units. Under-claiming significance is
	// the safe direction for the paper's "not significant" argument.
	PValue float64
	// Skipped lists placebo units whose fit failed (e.g. zero pre variance).
	// They are included conservatively in PValue; see there.
	Skipped []string
}

// PlaceboTest runs the full placebo analysis for the treated unit. Placebos
// are fit on the panel with the genuinely treated unit removed, so its
// post-treatment behaviour cannot contaminate placebo donor pools.
//
// It is the composition of the test's two halves: the real Fit, the donor
// side (FitPlacebos), and the treated side's rank (Placebos.Test). A caller
// whose treated units share one treated-removed panel and t0 can fit the
// donor side once and rank every unit against it.
//
// The placebo refits shard across cfg.Pool; cancelling ctx stops scheduling
// further fits and returns ctx.Err() with no result.
func PlaceboTest(ctx context.Context, p *Panel, treated string, t0 int, cfg Config) (*PlaceboResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	real, err := Fit(p, treated, t0, cfg)
	if err != nil {
		return nil, err
	}
	pl, err := FitPlacebos(ctx, p, treated, t0, cfg)
	if err != nil {
		return nil, err
	}
	return pl.Test(ctx, real), nil
}

// Placebos is the donor side of a placebo test: every donor of the
// treated-removed panel refit as if it had been treated at t0. It depends on
// that panel and t0 only, not on the treated unit's own row, and it is never
// written after FitPlacebos returns, so any number of tests may share it.
type Placebos struct {
	// Ratios holds each placebo unit's post/pre RMSE ratio.
	Ratios map[string]float64
	// Skipped lists, sorted, the placebo units whose fit failed.
	Skipped []string
}

// FitPlacebos fits the donor side of treated's placebo test: every other
// unit of p, on the panel without treated, as if treated at t0.
func FitPlacebos(ctx context.Context, p *Panel, treated string, t0 int, cfg Config) (*Placebos, error) {
	ti, err := p.UnitIndex(treated)
	if err != nil {
		return nil, err
	}

	// Panel without the treated unit.
	donorUnits := make([]string, 0, len(p.Units)-1)
	rows := make([]int, 0, len(p.Units)-1)
	for i, u := range p.Units {
		if i == ti {
			continue
		}
		donorUnits = append(donorUnits, u)
		rows = append(rows, i)
	}
	if len(donorUnits) < 2 {
		return nil, fmt.Errorf("synthetic: placebo test needs at least 2 donors")
	}
	sub := mathx.NewMatrix(len(rows), p.Y.Cols)
	for k, r := range rows {
		for t := 0; t < p.Y.Cols; t++ {
			sub.Set(k, t, p.Y.At(r, t))
		}
	}
	subPanel, err := NewPanel(donorUnits, p.Times, sub)
	if err != nil {
		return nil, err
	}

	// Each placebo fit is an independent pure function of its donor index,
	// so the pool parallelizes them; results come back in donor order, so
	// the assembled Ratios/Skipped sets are identical to a sequential loop.
	type placeboFit struct {
		ratio   float64
		skipped bool
	}
	fits, err := parallel.Map(ctx, cfg.Pool, len(donorUnits), func(i int) (placeboFit, error) {
		res, err := Fit(subPanel, donorUnits[i], t0, cfg)
		if err != nil || math.IsNaN(res.RMSERatio) {
			return placeboFit{skipped: true}, nil
		}
		return placeboFit{ratio: res.RMSERatio}, nil
	})
	if err != nil {
		// Individual fit failures are folded into Skipped above; the only
		// error Map can surface here is the context's.
		return nil, err
	}

	ratios := make(map[string]float64, len(donorUnits))
	var skipped []string
	for i, f := range fits {
		if f.skipped {
			skipped = append(skipped, donorUnits[i])
			continue
		}
		ratios[donorUnits[i]] = f.ratio
	}
	if len(ratios) == 0 {
		return nil, fmt.Errorf("synthetic: all %d placebo fits failed", len(donorUnits))
	}
	sort.Strings(skipped)
	// Run-trace accounting: the fits this donor side made. No-ops without a
	// recorder on ctx.
	obs.Add(ctx, "placebo.fits_attempted", int64(len(donorUnits)))
	obs.Add(ctx, "placebo.fits_skipped", int64(len(skipped)))
	return &Placebos{Ratios: ratios, Skipped: skipped}, nil
}

// Test is the treated side of a placebo test: it ranks the real fit's RMSE
// ratio among the placebos. The result shares Ratios and Skipped with pl.
func (pl *Placebos) Test(ctx context.Context, real *Result) *PlaceboResult {
	obs.Add(ctx, "placebo.tests", 1)
	return &PlaceboResult{
		Treated: real,
		Ratios:  pl.Ratios,
		PValue:  placeboPValue(real.RMSERatio, pl.Ratios, len(pl.Skipped)),
		Skipped: pl.Skipped,
	}
}

// PValueShifted is the p-value this placebo test would have reported had
// the treated unit's post-period outcomes each been shifted by shift: a
// shift of e scores the panel with an additive effect e, from fits already
// made. It is exact, not an approximation. The treated unit's weights come
// from pre-period data only and the placebos are fit on the panel without
// the treated unit, so only the treated post-period RMSE moves with shift;
// it is recomputed with the same float operations PlaceboTest would have
// applied to the shifted panel, and ranked against the unchanged placebos.
func (r *PlaceboResult) PValueShifted(shift float64) float64 {
	tr := r.Treated
	actual := make(mathx.Vector, len(tr.Actual)-tr.T0)
	for i, y := range tr.Actual[tr.T0:] {
		actual[i] = y + shift
	}
	ratio := rmseRatio(mathx.RMSE(actual, tr.Synthetic[tr.T0:]), tr.PreRMSE)
	return placeboPValue(ratio, r.Ratios, len(r.Skipped))
}

// placeboPValue computes the rank-based p-value including the treated unit
// itself. Skipped placebo units stay in the denominator and count as "at
// least as extreme" (see the PValue doc):
//
//	p = (1 + #{ratio >= treated} + #skipped) / (#placebos + #skipped + 1).
func placeboPValue(treatedRatio float64, ratios map[string]float64, nSkipped int) float64 {
	countGE := 1 // the treated unit always counts
	for _, r := range ratios {
		if r >= treatedRatio {
			countGE++
		}
	}
	return float64(countGE+nSkipped) / float64(len(ratios)+nSkipped+1)
}

// PrePostTTest is the naive alternative to placebo inference that the
// DESIGN.md ablation compares against: a Welch t-test between the unit's own
// pre and post outcome levels, ignoring donors entirely. It conflates the
// treatment with any common shock — included to demonstrate why the paper's
// synthetic-control diagnostics matter.
func PrePostTTest(p *Panel, treated string, t0 int) (delta, pvalue float64, err error) {
	ti, err := p.UnitIndex(treated)
	if err != nil {
		return 0, 0, err
	}
	pre := make([]float64, t0)
	post := make([]float64, p.Y.Cols-t0)
	for t := 0; t < t0; t++ {
		pre[t] = p.Y.At(ti, t)
	}
	for t := t0; t < p.Y.Cols; t++ {
		post[t-t0] = p.Y.At(ti, t)
	}
	_, pvalue = mathx.WelchT(post, pre)
	return mathx.Mean(post) - mathx.Mean(pre), pvalue, nil
}
