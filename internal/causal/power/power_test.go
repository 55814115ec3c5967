package power

import (
	"context"
	"math"
	"testing"

	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/mathx"
	"sisyphus/internal/parallel"
)

func table1ishDesign() SCDesign {
	return SCDesign{
		Donors: 18, PrePeriods: 42, PostPeriods: 42,
		UnitNoise: 1.2, Method: synthetic.Robust,
	}
}

func TestPowerMonotoneInEffect(t *testing.T) {
	d := table1ishDesign()
	pw, err := d.Power(context.Background(), parallel.Pool{}, []float64{0.3, 5}, 0.06, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	pSmall, pBig := pw[0], pw[1]
	if pBig < pSmall {
		t.Fatalf("power not monotone: %v at 0.3ms vs %v at 5ms", pSmall, pBig)
	}
	if pBig < 0.8 {
		t.Fatalf("a 5ms effect should be nearly always detected: %v", pBig)
	}
	if pSmall > 0.5 {
		t.Fatalf("a 0.3ms effect in 1.2ms noise should rarely be detected: %v", pSmall)
	}
}

func TestPowerNullRespectsAlpha(t *testing.T) {
	d := table1ishDesign()
	pw, err := d.Power(context.Background(), parallel.Pool{}, []float64{0}, 0.06, 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	p0 := pw[0]
	// Under the null, detection rate ≈ alpha (rank test is exact-ish).
	if p0 > 0.2 {
		t.Fatalf("false positive rate %v under the null", p0)
	}
}

// singleEffectPower is the per-effect power loop Power replaced: draw each
// trial's panel, add the effect to the treated unit's post periods, run a
// fresh placebo test, and count detections. Power scores a whole effect
// grid from one placebo test per trial and must reproduce it bit for bit.
func singleEffectPower(t *testing.T, d SCDesign, effect, alpha float64, trials int, seed uint64) float64 {
	t.Helper()
	d, err := d.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	r := mathx.NewRNG(seed)
	detected := 0
	for i := 0; i < trials; i++ {
		panel, err := d.panel(r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for tt := d.PrePeriods; tt < panel.Y.Cols; tt++ {
			panel.Y.Set(0, tt, panel.Y.At(0, tt)+effect)
		}
		pl, err := synthetic.PlaceboTest(context.Background(), panel, "u0", d.PrePeriods,
			synthetic.Config{Method: d.Method, Pool: parallel.NewPool(1)})
		if err != nil {
			t.Fatal(err)
		}
		if pl.PValue <= alpha {
			detected++
		}
	}
	return float64(detected) / float64(trials)
}

// TestPowerCurveMatchesPerEffectLoop holds the shared-fit power curve to
// the per-effect loop, bit for bit, on the Table-1 design and on a small
// classic design, with a grid that includes zero and a negative effect.
func TestPowerCurveMatchesPerEffectLoop(t *testing.T) {
	effects := []float64{-1.5, 0, 0.5, 1, 2, 5}
	designs := []SCDesign{
		table1ishDesign(),
		{Donors: 6, PrePeriods: 12, PostPeriods: 6, UnitNoise: 2, Method: synthetic.Classic},
	}
	for di, d := range designs {
		got, err := d.Power(context.Background(), parallel.NewPool(2), effects, 0.15, 20, 11)
		if err != nil {
			t.Fatal(err)
		}
		for k, eff := range effects {
			want := singleEffectPower(t, d, eff, 0.15, 20, 11)
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Errorf("design %d effect %v: curve power %v, per-effect loop %v", di, eff, got[k], want)
			}
		}
	}
	if _, err := table1ishDesign().Power(context.Background(), parallel.Pool{}, nil, 0.06, 5, 1); err == nil {
		t.Fatal("empty effect grid accepted")
	}
}

// TestPowerSizeBinomialBand is the size gate for the placebo test. The
// Table-1 design has 18 donors, so the smallest attainable p-value is 1/19
// and a test at α = 0.06 rejects exactly when the treated unit's RMSE ratio
// ranks first of 19. Under no effect the 19 units are exchangeable, so
// the exact size is 1/19 and the rejection count over n trials is
// Binomial(n, 1/19). The count at a fixed seed must fall inside the
// two-sided 99.9% band of that distribution.
func TestPowerSizeBinomialBand(t *testing.T) {
	const (
		trials = 400
		alpha  = 0.06
		size   = 1.0 / 19
		tail   = 0.0005 // per side: a 99.9% band
	)
	d := table1ishDesign()
	pw, err := d.Power(context.Background(), parallel.Default(), []float64{0}, alpha, trials, 7)
	if err != nil {
		t.Fatal(err)
	}
	rejections := int(math.Round(pw[0] * trials))
	lo, hi := binomialBand(trials, size, tail)
	t.Logf("%d/%d rejections at effect 0 (rate %.4f, exact size %.4f); 99.9%% band [%d, %d]",
		rejections, trials, pw[0], size, lo, hi)
	if rejections < lo || rejections > hi {
		t.Fatalf("placebo test size off: %d/%d rejections outside the binomial band [%d, %d] around %d×%.4f",
			rejections, trials, lo, hi, trials, size)
	}
}

// binomialBand returns the acceptance interval [lo, hi] for
// X ~ Binomial(n, p) with at most tail probability outside each end: lo is
// the largest k with P(X < k) ≤ tail, hi the smallest k with P(X > k) ≤ tail.
func binomialBand(n int, p, tail float64) (lo, hi int) {
	lgamma := func(x int) float64 { v, _ := math.Lgamma(float64(x)); return v }
	pmf := func(k int) float64 {
		return math.Exp(lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) +
			float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	for below := pmf(0); below <= tail; below += pmf(lo) {
		lo++
	}
	hi = n
	for above := pmf(n); above <= tail; above += pmf(hi) {
		hi--
	}
	return lo, hi
}

func TestMinDetectableEffect(t *testing.T) {
	d := table1ishDesign()
	mde, err := d.MinDetectableEffect(context.Background(), parallel.Pool{}, 0.06, 0.8, 8, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mde <= 0 || mde > 8 {
		t.Fatalf("mde = %v", mde)
	}
	// The Table 1 verdict in context: effects below the MDE (paper saw
	// ±0.1–3 ms on several units) are expected to be "not significant".
	t.Logf("minimum detectable effect at 80%% power: %.2f ms", mde)
	if _, err := d.MinDetectableEffect(context.Background(), parallel.Pool{}, 0.06, 1.5, 8, 10, 3); err == nil {
		t.Fatal("bad target accepted")
	}
	if _, err := d.MinDetectableEffect(context.Background(), parallel.Pool{}, 0.06, 0.9, 0.01, 10, 3); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestDesignValidation(t *testing.T) {
	bad := []SCDesign{
		{Donors: 1, PrePeriods: 10, PostPeriods: 10},
		{Donors: 5, PrePeriods: 2, PostPeriods: 10},
		{Donors: 5, PrePeriods: 10, PostPeriods: 0},
		{Donors: 5, PrePeriods: 10, PostPeriods: 10, UnitNoise: -1},
	}
	for i, d := range bad {
		if _, err := d.Power(context.Background(), parallel.Pool{}, []float64{1}, 0.05, 5, 1); err == nil {
			t.Fatalf("bad design %d accepted", i)
		}
	}
}
