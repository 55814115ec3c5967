package estimate

import (
	"math"
	"testing"
	"testing/quick"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
)

// confoundedSample generates the paper's running example with binary
// treatment: congestion c ~ N(0,1); route change r = 1{0.8c + u > 0} with
// u ~ N(0,1) so treatment overlap holds at all congestion levels;
// latency l = 10 + 2c + effect*r + e.
func confoundedSample(seed uint64, n int, effect float64) *data.Frame {
	r := mathx.NewRNG(seed)
	c := make([]float64, n)
	tr := make([]float64, n)
	l := make([]float64, n)
	for i := 0; i < n; i++ {
		c[i] = r.Normal(0, 1)
		if 0.8*c[i]+r.Normal(0, 1) > 0 {
			tr[i] = 1
		}
		l[i] = 10 + 2*c[i] + effect*tr[i] + r.Normal(0, 0.5)
	}
	f, err := data.FromColumns(map[string][]float64{"C": c, "R": tr, "L": l})
	if err != nil {
		panic(err)
	}
	return f
}

func TestNaiveAssociationIsBiased(t *testing.T) {
	f := confoundedSample(1, 8000, 3)
	naive, err := NaiveAssociation(f, "R", "L")
	if err != nil {
		t.Fatal(err)
	}
	// Treated units have higher C, so the naive contrast overstates 3 by
	// about 2·(E[C|R=1] − E[C|R=0]) ≈ 2; require clear upward bias.
	if naive.Effect < 4 {
		t.Fatalf("expected confounded naive estimate >> 3, got %v", naive.Effect)
	}
}

func TestStratifiedRemovesConfounding(t *testing.T) {
	f := confoundedSample(2, 20000, 3)
	est, err := Stratified(f, "R", "L", []string{"C"}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Effect-3) > 0.25 {
		t.Fatalf("stratified = %v want ≈3", est.Effect)
	}
	if est.SE <= 0 {
		t.Fatalf("se = %v", est.SE)
	}
}

func TestStratifiedNoAdjustFallsBackToNaive(t *testing.T) {
	f := confoundedSample(3, 2000, 3)
	a, _ := Stratified(f, "R", "L", nil, 5)
	b, _ := NaiveAssociation(f, "R", "L")
	if a.Effect != b.Effect {
		t.Fatalf("fallback mismatch: %v vs %v", a.Effect, b.Effect)
	}
}

func TestStratifiedErrors(t *testing.T) {
	f := confoundedSample(4, 100, 3)
	if _, err := Stratified(f, "R", "L", []string{"C"}, 0); err == nil {
		t.Fatal("bins=0 accepted")
	}
	if _, err := Stratified(f, "R", "L", []string{"missing"}, 4); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestRegressionAdjustment(t *testing.T) {
	f := confoundedSample(5, 8000, 3)
	est, err := Regression(f, "R", "L", []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Effect-3) > 0.1 {
		t.Fatalf("regression = %v want ≈3", est.Effect)
	}
	lo, hi := est.CI(0.95)
	if lo > 3 || hi < 3 {
		t.Fatalf("CI [%v, %v] misses truth", lo, hi)
	}
	if p := est.PValue(); p > 1e-6 {
		t.Fatalf("p = %v for a strong effect", p)
	}
}

func TestOLSRecoversPlantedModel(t *testing.T) {
	r := mathx.NewRNG(6)
	n := 3000
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = r.Normal(0, 1)
		x2[i] = r.Normal(0, 2)
		y[i] = 1.5 - 2*x1[i] + 0.5*x2[i] + r.Normal(0, 0.3)
	}
	f, _ := data.FromColumns(map[string][]float64{"x1": x1, "x2": x2, "y": y})
	res, err := OLS(f, "y", "x1", "x2")
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{"(intercept)": 1.5, "x1": -2, "x2": 0.5}
	for name, want := range checks {
		got, err := res.Coefficient(name)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("%s = %v want %v", name, got, want)
		}
	}
	if res.R2 < 0.9 {
		t.Fatalf("R² = %v", res.R2)
	}
	if se, _ := res.CoefficientSE("x1"); se <= 0 || se > 0.05 {
		t.Fatalf("robust se = %v", se)
	}
}

func TestOLSRankDeficient(t *testing.T) {
	f, _ := data.FromColumns(map[string][]float64{
		"a": {1, 2, 3, 4},
		"b": {2, 4, 6, 8}, // collinear with a
		"y": {1, 2, 3, 4},
	})
	if _, err := OLS(f, "y", "a", "b"); err == nil {
		t.Fatal("collinear design accepted")
	}
}

func TestFitLogisticRecoversCoefficients(t *testing.T) {
	r := mathx.NewRNG(7)
	n := 8000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Normal(0, 1)
		p := 1 / (1 + math.Exp(-(0.5 + 1.5*x[i])))
		if r.Bernoulli(p) {
			y[i] = 1
		}
	}
	f, _ := data.FromColumns(map[string][]float64{"x": x, "y": y})
	m, err := FitLogistic(f, "y", "x")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-0.5) > 0.15 || math.Abs(m.Coef[1]-1.5) > 0.15 {
		t.Fatalf("logistic coef = %v want [0.5 1.5]", m.Coef)
	}
	if p := m.Predict(map[string]float64{"x": 0}); math.Abs(p-sigmoid(m.Coef[0])) > 1e-9 {
		t.Fatalf("predict = %v", p)
	}
}

func TestFitLogisticRejectsNonBinary(t *testing.T) {
	f, _ := data.FromColumns(map[string][]float64{"x": {1, 2, 3, 4}, "y": {0, 1, 2, 0}})
	if _, err := FitLogistic(f, "y", "x"); err == nil {
		t.Fatal("non-binary outcome accepted")
	}
}

func TestIPWRemovesConfounding(t *testing.T) {
	f := confoundedSample(8, 20000, 3)
	est, err := IPW(f, "R", "L", []string{"C"}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Effect-3) > 0.3 {
		t.Fatalf("IPW = %v want ≈3", est.Effect)
	}
}

// ivSample builds an endogenous-treatment world with a valid instrument:
// latent u confounds t and y; z shifts t and touches y only through t.
func ivSample(seed uint64, n int, effect float64) *data.Frame {
	r := mathx.NewRNG(seed)
	z := make([]float64, n)
	tr := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		u := r.Normal(0, 1)
		if r.Bernoulli(0.5) {
			z[i] = 1
		}
		tr[i] = 0.8*z[i] + u + r.Normal(0, 0.5)
		y[i] = 5 + effect*tr[i] + 2*u + r.Normal(0, 0.5)
	}
	f, _ := data.FromColumns(map[string][]float64{"Z": z, "T": tr, "Y": y})
	return f
}

func TestTwoSLSBeatsOLSUnderEndogeneity(t *testing.T) {
	f := ivSample(11, 20000, 1.5)
	ols, err := Regression(f, "T", "Y", nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ols.Effect-1.5) < 0.5 {
		t.Fatalf("OLS should be badly biased; got %v", ols.Effect)
	}
	iv, err := TwoSLS(f, "T", "Y", []string{"Z"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Effect-1.5) > 0.2 {
		t.Fatalf("2SLS = %v want ≈1.5", iv.Effect)
	}
	if iv.FirstStageF < 10 {
		t.Fatalf("first-stage F = %v; this instrument is strong by construction", iv.FirstStageF)
	}
}

func TestTwoSLSWithControls(t *testing.T) {
	// Add an observed control that hits both treatment and outcome.
	r := mathx.NewRNG(12)
	n := 10000
	z := make([]float64, n)
	w := make([]float64, n)
	tr := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		u := r.Normal(0, 1)
		w[i] = r.Normal(0, 1)
		if r.Bernoulli(0.5) {
			z[i] = 1
		}
		tr[i] = 0.8*z[i] + 0.7*w[i] + u + r.Normal(0, 0.5)
		y[i] = 5 + 1.5*tr[i] + 1.2*w[i] + 2*u + r.Normal(0, 0.5)
	}
	f, _ := data.FromColumns(map[string][]float64{"Z": z, "W": w, "T": tr, "Y": y})
	iv, err := TwoSLS(f, "T", "Y", []string{"Z"}, []string{"W"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Effect-1.5) > 0.25 {
		t.Fatalf("2SLS with controls = %v want ≈1.5", iv.Effect)
	}
}

func TestWaldIVAgreesWithTwoSLS(t *testing.T) {
	f := ivSample(13, 20000, 1.5)
	wald, err := WaldIV(f, "T", "Y", "Z")
	if err != nil {
		t.Fatal(err)
	}
	iv, err := TwoSLS(f, "T", "Y", []string{"Z"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wald.Effect-iv.Effect) > 0.01 {
		t.Fatalf("Wald %v vs 2SLS %v should coincide for one binary instrument", wald.Effect, iv.Effect)
	}
}

func TestWaldIVNoFirstStage(t *testing.T) {
	f, _ := data.FromColumns(map[string][]float64{
		"Z": {0, 1, 0, 1},
		"T": {1, 1, 1, 1}, // instrument does not move treatment
		"Y": {1, 2, 3, 4},
	})
	if _, err := WaldIV(f, "T", "Y", "Z"); err == nil {
		t.Fatal("zero first stage accepted")
	}
}

func TestTwoSLSRequiresInstrument(t *testing.T) {
	f := ivSample(14, 100, 1)
	if _, err := TwoSLS(f, "T", "Y", nil, nil); err == nil {
		t.Fatal("no instruments accepted")
	}
}

func TestDifferenceInDifferences(t *testing.T) {
	// Treated group gains +4 post; common shock +2; group gap +10.
	r := mathx.NewRNG(15)
	var g, p, y []float64
	for i := 0; i < 4000; i++ {
		gi := float64(i % 2)
		pi := float64((i / 2) % 2)
		yi := 20 + 10*gi + 2*pi + 4*gi*pi + r.Normal(0, 1)
		g = append(g, gi)
		p = append(p, pi)
		y = append(y, yi)
	}
	f, _ := data.FromColumns(map[string][]float64{"g": g, "p": p, "y": y})
	est, err := DifferenceInDifferences(f, "g", "p", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Effect-4) > 0.2 {
		t.Fatalf("DiD = %v want 4", est.Effect)
	}
}

func TestDiDEmptyCell(t *testing.T) {
	f, _ := data.FromColumns(map[string][]float64{
		"g": {0, 0, 1},
		"p": {0, 1, 0},
		"y": {1, 2, 3},
	})
	if _, err := DifferenceInDifferences(f, "g", "p", "y"); err == nil {
		t.Fatal("empty cell accepted")
	}
}

func TestEstimateCIAndPValueDegenerate(t *testing.T) {
	e := Estimate{Effect: 1, SE: math.NaN()}
	if !math.IsNaN(e.PValue()) {
		t.Fatal("NaN SE should give NaN p")
	}
	e2 := Estimate{Effect: 0, SE: 1}
	if p := e2.PValue(); math.Abs(p-1) > 1e-9 {
		t.Fatalf("zero effect p = %v want 1", p)
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.025, 0.5, 0.975} {
		q := normalQuantile(p)
		if math.Abs(mathx.NormalCDF(q)-p) > 1e-9 {
			t.Fatalf("quantile(%v) = %v round trips to %v", p, q, mathx.NormalCDF(q))
		}
	}
	if math.Abs(normalQuantile(0.975)-1.959964) > 1e-4 {
		t.Fatalf("z(0.975) = %v", normalQuantile(0.975))
	}
}

// Equivariance properties via testing/quick: estimators must transform
// predictably under affine changes of the outcome — a cheap invariant that
// catches unit-handling bugs (ms vs s, offsets).
func TestEstimatorAffineEquivariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		scale := 0.5 + 4*r.Float64()
		shift := r.Normal(0, 50)
		base := confoundedSample(seed, 1500, 2)
		scaled := data.New()
		for _, name := range base.Columns() {
			col := append([]float64(nil), base.MustColumn(name)...)
			if name == "L" {
				for i := range col {
					col[i] = col[i]*scale + shift
				}
			}
			if err := scaled.AddColumn(name, col); err != nil {
				return false
			}
		}
		for _, est := range []func(*data.Frame) (Estimate, error){
			func(g *data.Frame) (Estimate, error) { return NaiveAssociation(g, "R", "L") },
			func(g *data.Frame) (Estimate, error) { return Regression(g, "R", "L", []string{"C"}) },
			func(g *data.Frame) (Estimate, error) { return Stratified(g, "R", "L", []string{"C"}, 8) },
		} {
			a, err1 := est(base)
			b, err2 := est(scaled)
			if err1 != nil || err2 != nil {
				return false
			}
			// Effect scales by `scale`; the shift cancels in every contrast.
			if math.Abs(b.Effect-a.Effect*scale) > 1e-6*(1+math.Abs(a.Effect*scale)) {
				t.Logf("seed %d: effect %v scaled to %v, want %v", seed, a.Effect, b.Effect, a.Effect*scale)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Treatment relabeling: swapping the arms flips the sign of the contrast.
func TestEstimatorArmSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		base := confoundedSample(seed, 1500, 2)
		flipped := data.New()
		for _, name := range base.Columns() {
			col := append([]float64(nil), base.MustColumn(name)...)
			if name == "R" {
				for i := range col {
					col[i] = 1 - col[i]
				}
			}
			if err := flipped.AddColumn(name, col); err != nil {
				return false
			}
		}
		a, err1 := Regression(base, "R", "L", []string{"C"})
		b, err2 := Regression(flipped, "R", "L", []string{"C"})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Effect+b.Effect) < 1e-8*(1+math.Abs(a.Effect))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
