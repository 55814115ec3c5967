package synthetic

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
)

// factorPanel builds a panel driven by a low-rank latent factor model:
// y_it = load_i · factor_t + noise, plus `effect` added to the treated
// unit's post periods. This is exactly the setting synthetic control is
// designed for (donors share the latent factors).
func factorPanel(seed uint64, nUnits, nTimes, t0 int, effect, noise float64) *Panel {
	r := mathx.NewRNG(seed)
	nFactors := 3
	loads := mathx.NewMatrix(nUnits, nFactors)
	for i := range loads.Data {
		loads.Data[i] = 0.5 + r.Float64()
	}
	// Make the treated unit (row 0) a convex combination of the donors so
	// it lies inside their hull — the regime classic SC is designed for.
	wsum := 0.0
	w := make([]float64, nUnits-1)
	for i := range w {
		w[i] = r.Float64()
		wsum += w[i]
	}
	for k := 0; k < nFactors; k++ {
		var v float64
		for i := 1; i < nUnits; i++ {
			v += w[i-1] / wsum * loads.At(i, k)
		}
		loads.Set(0, k, v)
	}
	factors := mathx.NewMatrix(nFactors, nTimes)
	for k := 0; k < nFactors; k++ {
		level := 20 + 10*r.Float64()
		for t := 0; t < nTimes; t++ {
			// Stationary diurnal-ish factor.
			factors.Set(k, t, level+3*math.Sin(float64(t)/4+float64(k))+r.Normal(0, 0.3))
		}
	}
	y := loads.Mul(factors)
	for i := range y.Data {
		y.Data[i] += r.Normal(0, noise)
	}
	// Unit 0 is treated.
	for t := t0; t < nTimes; t++ {
		y.Set(0, t, y.At(0, t)+effect)
	}
	units := make([]string, nUnits)
	for i := range units {
		units[i] = string(rune('a' + i))
	}
	times := make([]float64, nTimes)
	for t := range times {
		times[t] = float64(t)
	}
	p, err := NewPanel(units, times, y)
	if err != nil {
		panic(err)
	}
	return p
}

func TestNewPanelValidation(t *testing.T) {
	y := mathx.NewMatrix(2, 3)
	if _, err := NewPanel([]string{"a"}, []float64{0, 1, 2}, y); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := NewPanel([]string{"a", "a"}, []float64{0, 1, 2}, y); err == nil {
		t.Fatal("duplicate unit accepted")
	}
	y1 := mathx.NewMatrix(1, 3)
	if _, err := NewPanel([]string{"a"}, []float64{0, 1, 2}, y1); err == nil {
		t.Fatal("single-unit panel accepted")
	}
}

func TestClassicRecoversEffect(t *testing.T) {
	p := factorPanel(1, 12, 60, 40, -5, 0.3)
	res, err := Fit(p, "a", 40, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ATT-(-5)) > 1 {
		t.Fatalf("classic ATT = %v want ≈ -5", res.ATT)
	}
	if res.PreRMSE > 2 {
		t.Fatalf("poor pre fit: %v", res.PreRMSE)
	}
	if res.RMSERatio < 2 {
		t.Fatalf("treated unit should diverge post: ratio = %v", res.RMSERatio)
	}
}

func TestRobustRecoversEffectUnderNoise(t *testing.T) {
	p := factorPanel(2, 12, 60, 40, -5, 2.0)
	res, err := Fit(p, "a", 40, Config{Method: Robust})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ATT-(-5)) > 1.5 {
		t.Fatalf("robust ATT = %v want ≈ -5", res.ATT)
	}
}

func TestNullEffectGivesSmallATT(t *testing.T) {
	for _, m := range []Method{Classic, Robust} {
		p := factorPanel(3, 12, 60, 40, 0, 0.5)
		res, err := Fit(p, "a", 40, Config{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.ATT) > 1 {
			t.Fatalf("%v ATT under null = %v want ≈ 0", m, res.ATT)
		}
	}
}

func TestClassicWeightsOnSimplex(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		p := factorPanel(seed, 4+r.Intn(10), 30, 20, r.Normal(0, 3), 0.5)
		res, err := Fit(p, "a", 20, Config{Method: Classic})
		if err != nil {
			return false
		}
		var sum float64
		for _, w := range res.Weights {
			if w < -1e-9 || w > 1+1e-9 {
				return false
			}
			sum += w
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRobustBeatsClassicUnderHeavyNoise(t *testing.T) {
	// Average absolute ATT error across seeds under noisy donors: the
	// SVD denoising should help (this is the DESIGN.md ablation).
	var errClassic, errRobust float64
	const trials = 8
	for s := uint64(0); s < trials; s++ {
		p := factorPanel(100+s, 10, 80, 60, -4, 3.0)
		rc, err := Fit(p, "a", 60, Config{Method: Classic})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := Fit(p, "a", 60, Config{Method: Robust})
		if err != nil {
			t.Fatal(err)
		}
		errClassic += math.Abs(rc.ATT - (-4))
		errRobust += math.Abs(rr.ATT - (-4))
	}
	t.Logf("mean |ATT error|: classic=%.3f robust=%.3f", errClassic/trials, errRobust/trials)
	if errRobust > errClassic*1.5 {
		t.Fatalf("robust (%.3f) much worse than classic (%.3f) under noise", errRobust/trials, errClassic/trials)
	}
}

func TestFitErrors(t *testing.T) {
	p := factorPanel(4, 6, 20, 10, 0, 0.5)
	if _, err := Fit(p, "zzz", 10, Config{}); err == nil {
		t.Fatal("unknown unit accepted")
	}
	if _, err := Fit(p, "a", 2, Config{}); err == nil {
		t.Fatal("too few pre periods accepted")
	}
	if _, err := Fit(p, "a", 20, Config{}); err == nil {
		t.Fatal("no post periods accepted")
	}
	if _, err := Fit(p, "a", 10, Config{Method: Method(99)}); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestPlaceboPValueSignificantForLargeEffect(t *testing.T) {
	p := factorPanel(5, 20, 80, 60, -8, 0.3)
	pr, err := PlaceboTest(context.Background(), p, "a", 60, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	// 19 placebos + treated = 20 units; the treated ratio should rank top:
	// p = 1/20 = 0.05.
	if pr.PValue > 0.11 {
		t.Fatalf("placebo p = %v for a huge effect", pr.PValue)
	}
	if len(pr.Ratios) != 19 {
		t.Fatalf("placebo count = %d", len(pr.Ratios))
	}
}

func TestPlaceboPValueLargeUnderNull(t *testing.T) {
	p := factorPanel(6, 16, 80, 60, 0, 0.5)
	pr, err := PlaceboTest(context.Background(), p, "a", 60, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	if pr.PValue < 0.2 {
		t.Fatalf("placebo p = %v under the null; expected unremarkable rank", pr.PValue)
	}
}

func TestPlaceboPValueBounds(t *testing.T) {
	f := func(seed uint64) bool {
		p := factorPanel(seed, 8, 40, 30, 1, 0.8)
		pr, err := PlaceboTest(context.Background(), p, "a", 30, Config{Method: Classic})
		if err != nil {
			return true
		}
		return pr.PValue > 0 && pr.PValue <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPrePostTTestConflatesCommonShocks(t *testing.T) {
	// Add a common +6 shock to ALL units post-t0 and no treatment effect.
	p := factorPanel(7, 12, 60, 40, 0, 0.3)
	for i := 0; i < len(p.Units); i++ {
		for tt := 40; tt < 60; tt++ {
			p.Y.Set(i, tt, p.Y.At(i, tt)+6)
		}
	}
	delta, pval, err := PrePostTTest(p, "a", 40)
	if err != nil {
		t.Fatal(err)
	}
	if delta < 4 || pval > 0.01 {
		t.Fatalf("naive pre/post should falsely detect the common shock: delta=%v p=%v", delta, pval)
	}
	// Synthetic control is immune: donors absorb the common shock.
	res, err := Fit(p, "a", 40, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ATT) > 1 {
		t.Fatalf("SC should see no unit-specific effect, got ATT=%v", res.ATT)
	}
}

func TestTopWeights(t *testing.T) {
	p := factorPanel(8, 8, 40, 30, -3, 0.3)
	res, err := Fit(p, "a", 30, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopWeights(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if math.Abs(top[0].Weight) < math.Abs(top[2].Weight) {
		t.Fatal("weights not sorted")
	}
	all := res.TopWeights(0)
	if len(all) != len(res.Donors) {
		t.Fatalf("all weights = %d want %d", len(all), len(res.Donors))
	}
}

func TestGapSeries(t *testing.T) {
	p := factorPanel(9, 10, 40, 30, -5, 0.2)
	res, err := Fit(p, "a", 30, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	gap := res.Gap()
	preGap := gap[:30]
	postGap := gap[30:]
	if math.Abs(mathx.Vector(preGap).Mean()) > 1 {
		t.Fatalf("pre gap should hover near zero: %v", mathx.Vector(preGap).Mean())
	}
	if mathx.Vector(postGap).Mean() > -3 {
		t.Fatalf("post gap should be ≈ -5: %v", mathx.Vector(postGap).Mean())
	}
}

func TestMethodString(t *testing.T) {
	if Classic.String() != "classic" || Robust.String() != "robust" {
		t.Fatal("method names")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should still render")
	}
}

func TestResultRender(t *testing.T) {
	p := factorPanel(30, 8, 40, 30, -5, 0.3)
	res, err := Fit(p, "a", 30, Config{Method: Classic})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"unit a", "actual", "synthetic", "ATT", "top donors", "|"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
