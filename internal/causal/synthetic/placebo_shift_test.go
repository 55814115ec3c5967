package synthetic

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/parallel"
)

// shiftedPanel returns a copy of p with shift added to the treated unit's
// outcomes from t0 on: the panel an additive treatment effect of shift
// would have produced.
func shiftedPanel(t *testing.T, p *Panel, treated string, t0 int, shift float64) *Panel {
	t.Helper()
	ti, err := p.UnitIndex(treated)
	if err != nil {
		t.Fatal(err)
	}
	y := p.Y.Clone()
	for tt := t0; tt < y.Cols; tt++ {
		y.Set(ti, tt, y.At(ti, tt)+shift)
	}
	out, err := NewPanel(p.Units, p.Times, y)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkShifted asserts the fast path equals the slow path at every shift:
// PlaceboTest(p).PValueShifted(e) must be bit-equal to the p-value of a
// fresh PlaceboTest on p with the treated post period shifted by e.
func checkShifted(t *testing.T, name string, p *Panel, t0 int, cfg Config, shifts []float64) *PlaceboResult {
	t.Helper()
	ctx := context.Background()
	cfg.Pool = parallel.NewPool(1)
	base, err := PlaceboTest(ctx, p, "a", t0, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range shifts {
		slow, err := PlaceboTest(ctx, shiftedPanel(t, p, "a", t0, e), "a", t0, cfg)
		if err != nil {
			t.Fatalf("%s shift %v: %v", name, e, err)
		}
		if got := base.PValueShifted(e); math.Float64bits(got) != math.Float64bits(slow.PValue) {
			t.Fatalf("%s shift %v: PValueShifted = %v, refit p-value = %v", name, e, got, slow.PValue)
		}
	}
	return base
}

// TestPValueShiftedMatchesShiftedPanel holds the fast path to the slow one
// on random factor panels of random size, both estimators, at shifts that
// include zero and negative effects.
func TestPValueShiftedMatchesShiftedPanel(t *testing.T) {
	f := func(seed uint64, rawUnits, rawShift uint8, robust bool) bool {
		cfg := Config{Method: Classic}
		if robust {
			cfg.Method = Robust
		}
		p := factorPanel(seed, 4+int(rawUnits)%11, 36, 24, 0, 1.5)
		e := float64(int(rawShift)-128) / 16
		checkShifted(t, "random panel", p, 24, cfg, []float64{0, e, -e, 3})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPValueShiftedSkippedDonors covers placebo tests that skip donors.
// On a panel, two donors share a +Inf post-period cell, so each one's
// placebo fit compares +Inf with a synthetic +Inf (a NaN ratio, skipped);
// that panel's treated ratio is +Inf at any shift, so a hand-built result
// with finite ratios then pins that the skipped count enters every shifted
// p-value conservatively.
func TestPValueShiftedSkippedDonors(t *testing.T) {
	p := factorPanel(31, 8, 30, 20, 0, 1)
	for _, u := range []string{"c", "d"} {
		i, _ := p.UnitIndex(u)
		p.Y.Set(i, 25, math.Inf(1))
	}
	pl := checkShifted(t, "skipped donors", p, 20, Config{Method: Classic}, []float64{0, -2, 4})
	if len(pl.Skipped) == 0 {
		t.Fatal("fixture did not produce skipped placebo donors")
	}

	// Post residuals equal the shift and the pre-RMSE is 1, so the treated
	// ratio is |shift|; b and c are placebos, d and e were skipped.
	hand := &PlaceboResult{
		Treated: &Result{Actual: mathx.Vector{1, 2, 3, 4}, Synthetic: mathx.Vector{1, 2, 3, 4}, T0: 2, PreRMSE: 1},
		Ratios:  map[string]float64{"b": 1.5, "c": 0.8},
		Skipped: []string{"d", "e"},
	}
	for _, c := range []struct{ shift, want float64 }{
		{0, 5.0 / 5}, {-1, 4.0 / 5}, {1, 4.0 / 5}, {2, 3.0 / 5},
	} {
		if got := hand.PValueShifted(c.shift); got != c.want {
			t.Errorf("shift %v: p = %v, want %v", c.shift, got, c.want)
		}
	}
}

// TestPValueShiftedZeroPreRMSE covers a treated unit whose pre-period fit
// is exact: its pre-period is all zeros, so the robust weights are zero and
// the pre-RMSE is 0, and every shift must take the ratio's +Inf branch.
func TestPValueShiftedZeroPreRMSE(t *testing.T) {
	p := factorPanel(32, 8, 30, 20, 0, 1)
	for tt := 0; tt < 20; tt++ {
		p.Y.Set(0, tt, 0)
	}
	pl := checkShifted(t, "zero pre-RMSE", p, 20, Config{Method: Robust}, []float64{0, -1, 2.5})
	if pl.Treated.PreRMSE != 0 || !math.IsInf(pl.Treated.RMSERatio, 1) {
		t.Fatalf("fixture pre-RMSE %v, ratio %v: want 0 and +Inf", pl.Treated.PreRMSE, pl.Treated.RMSERatio)
	}
}
