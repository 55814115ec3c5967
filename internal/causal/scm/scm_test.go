package scm

import (
	"math"
	"testing"
	"testing/quick"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
)

// runningExample builds the paper's C → {R, L}, R → L model with known
// linear coefficients: L = 10 + 2C + 5R + noise, R = 1{C + u_R > 0.5} is
// replaced by a linear R = 0.8C + u_R so all mechanisms stay additive.
func runningExample(noiseStd float64) *Model {
	m := New()
	if err := m.DefineLinear("C", nil, 0, GaussianNoise(1)); err != nil {
		panic(err)
	}
	if err := m.DefineLinear("R", map[string]float64{"C": 0.8}, 0, GaussianNoise(noiseStd)); err != nil {
		panic(err)
	}
	if err := m.DefineLinear("L", map[string]float64{"C": 2, "R": 5}, 10, GaussianNoise(noiseStd)); err != nil {
		panic(err)
	}
	return m
}

func TestDefineRejectsDuplicatesAndCycles(t *testing.T) {
	m := New()
	if err := m.DefineLinear("A", nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineLinear("A", nil, 0, nil); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := m.DefineLinear("B", map[string]float64{"A": 1}, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A was already defined without parent B; adding an edge B -> A via a
	// new definition of A is impossible, but a cycle through a fresh pair:
	m2 := New()
	_ = m2.DefineLinear("X", map[string]float64{"Y": 1}, 0, nil) // Y implicit
	if err := m2.DefineLinear("Y", map[string]float64{"X": 1}, 0, nil); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestSampleRequiresAllNodesDefined(t *testing.T) {
	m := New()
	_ = m.DefineLinear("B", map[string]float64{"A": 1}, 0, nil) // A never defined
	if _, err := m.Sample(mathx.NewRNG(1)); err == nil {
		t.Fatal("undefined parent accepted at sample time")
	}
}

func TestObservationalMoments(t *testing.T) {
	m := runningExample(0.5)
	r := mathx.NewRNG(42)
	cols, err := m.SampleN(r, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// E[L] = 10 + 2 E[C] + 5 E[R] = 10, since E[C] = E[R] = 0.
	if got := mathx.Mean(cols["L"]); math.Abs(got-10) > 0.15 {
		t.Fatalf("E[L] = %v", got)
	}
	// Corr(C, R) should be strongly positive.
	if got := mathx.Correlation(cols["C"], cols["R"]); got < 0.7 {
		t.Fatalf("corr(C,R) = %v", got)
	}
	// The naive slope of L on R is biased above the structural 5: R and L
	// share the cause C.
	if slope := mathx.Covariance(cols["R"], cols["L"]) / mathx.Variance(cols["R"]); slope < 5.5 {
		t.Fatalf("naive slope = %v; expected confounding bias above 5", slope)
	}
}

func TestCounterfactualConsistency(t *testing.T) {
	// Property: intervening with the factually observed value must reproduce
	// the factual world exactly (the "consistency" axiom).
	f := func(seed uint64) bool {
		m := runningExample(1)
		r := mathx.NewRNG(seed)
		a, err := m.Sample(r)
		if err != nil {
			return false
		}
		cf, err := m.Counterfactual(a.Values, map[string]float64{"R": a.Values["R"]})
		if err != nil {
			return false
		}
		for k, v := range a.Values {
			if math.Abs(cf[k]-v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterfactualKnownAnswer(t *testing.T) {
	// Deterministic world (no noise): observed C=1, R=0.8, L=16. What would
	// L have been had R been 0? L_cf = 10 + 2·1 + 5·0 = 12.
	m := runningExample(0)
	obs := map[string]float64{"C": 1, "R": 0.8, "L": 10 + 2*1 + 5*0.8}
	cf, err := m.Counterfactual(obs, map[string]float64{"R": 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf["L"]-12) > 1e-9 {
		t.Fatalf("counterfactual L = %v want 12", cf["L"])
	}
	// The noise recovered for L was 0, so the counterfactual keeps it.
	obs2 := map[string]float64{"C": 1, "R": 0.8, "L": 17} // L has +1 noise
	cf2, err := m.Counterfactual(obs2, map[string]float64{"R": 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf2["L"]-13) > 1e-9 {
		t.Fatalf("counterfactual L with noise = %v want 13", cf2["L"])
	}
}

func TestCounterfactualRequiresFullObservation(t *testing.T) {
	m := runningExample(1)
	if _, err := m.Counterfactual(map[string]float64{"C": 1}, map[string]float64{"R": 0}); err == nil {
		t.Fatal("partial observation accepted")
	}
}

func TestFitLinearRecoversCoefficients(t *testing.T) {
	truth := runningExample(0.5)
	cols, err := truth.SampleN(mathx.NewRNG(11), 5000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := data.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.MustParse("C -> R; C -> L; R -> L")
	fit, err := FitLinear(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := fit.Coefficient("L", "R"); !ok || math.Abs(c-5) > 0.1 {
		t.Fatalf("fitted L~R coefficient = %v (ok=%v) want 5", c, ok)
	}
	if c, ok := fit.Coefficient("L", "C"); !ok || math.Abs(c-2) > 0.1 {
		t.Fatalf("fitted L~C coefficient = %v want 2", c)
	}
	if c, ok := fit.Coefficient("R", "C"); !ok || math.Abs(c-0.8) > 0.1 {
		t.Fatalf("fitted R~C coefficient = %v want 0.8", c)
	}
}

func TestFitLinearErrors(t *testing.T) {
	g := dag.MustParse("U [latent]; U -> X")
	f, _ := data.FromColumns(map[string][]float64{"U": {1, 2, 3}, "X": {1, 2, 3}})
	if _, err := FitLinear(g, f); err == nil {
		t.Fatal("latent node accepted")
	}
	g2 := dag.MustParse("A -> B")
	f2, _ := data.FromColumns(map[string][]float64{"A": {1, 2, 3}})
	if _, err := FitLinear(g2, f2); err == nil {
		t.Fatal("missing column accepted")
	}
	f3, _ := data.FromColumns(map[string][]float64{"A": {1, 2}, "B": {1, 2}})
	if _, err := FitLinear(g2, f3); err == nil {
		t.Fatal("too few rows accepted")
	}
}

func TestCoefficientProbe(t *testing.T) {
	m := runningExample(1)
	if _, ok := m.Coefficient("L", "Z"); ok {
		t.Fatal("unknown parent reported")
	}
	if _, ok := m.Coefficient("Z", "C"); ok {
		t.Fatal("unknown node reported")
	}
}
