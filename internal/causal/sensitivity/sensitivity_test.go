package sensitivity

import (
	"math"
	"testing"
	"testing/quick"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/causal/estimate"
	"sisyphus/internal/mathx"
)

func TestEValueKnownValues(t *testing.T) {
	// Classic textbook values: RR=2 → E ≈ 3.41; RR=1 → E = 1.
	e, err := EValue(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-(2+math.Sqrt(2))) > 1e-12 {
		t.Fatalf("EValue(2) = %v", e)
	}
	e1, _ := EValue(1)
	if e1 != 1 {
		t.Fatalf("EValue(1) = %v", e1)
	}
	// Protective effects use the reciprocal.
	eProt, _ := EValue(0.5)
	eHarm, _ := EValue(2)
	if math.Abs(eProt-eHarm) > 1e-12 {
		t.Fatalf("EValue(0.5)=%v should equal EValue(2)=%v", eProt, eHarm)
	}
	if _, err := EValue(0); err == nil {
		t.Fatal("EValue(0) accepted")
	}
}

func TestEValueMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		a := 1 + 4*r.Float64()
		b := a + 3*r.Float64()
		ea, err1 := EValue(a)
		eb, err2 := EValue(b)
		if err1 != nil || err2 != nil {
			return false
		}
		return eb >= ea-1e-12 && ea >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEValueFromEstimate(t *testing.T) {
	e := estimate.Estimate{Effect: 2, SE: 0.2}
	point, ci, err := EValueFromEstimate(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	if point <= 1 || ci <= 1 {
		t.Fatalf("point=%v ci=%v", point, ci)
	}
	if ci > point {
		t.Fatalf("CI e-value %v should not exceed point %v", ci, point)
	}
	// CI covering the null → CI e-value 1.
	weak := estimate.Estimate{Effect: 0.1, SE: 1}
	_, ciWeak, err := EValueFromEstimate(weak, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ciWeak != 1 {
		t.Fatalf("null-covering CI e-value = %v want 1", ciWeak)
	}
	if _, _, err := EValueFromEstimate(e, 0); err == nil {
		t.Fatal("zero SD accepted")
	}
}

// confounded builds the standard test world with true effect 3.
func confounded(seed uint64, n int, effect float64) *data.Frame {
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
	f, _ := data.FromColumns(map[string][]float64{"C": c, "R": tr, "L": l})
	return f
}

func regEst(f *data.Frame) (estimate.Estimate, error) {
	return estimate.Regression(f, "R", "L", []string{"C"})
}

func TestPlaceboTreatmentPassesForSoundEstimator(t *testing.T) {
	f := confounded(1, 4000, 3)
	ref, err := PlaceboTreatment(f, "R", regEst, mathx.NewRNG(2), 15)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Passed {
		t.Fatalf("sound estimator failed the placebo refuter: %v", ref)
	}
	if math.Abs(ref.Refuted) > 0.3 {
		t.Fatalf("placebo effect should be near zero: %v", ref.Refuted)
	}
	if math.Abs(ref.Original-3) > 0.3 {
		t.Fatalf("original = %v", ref.Original)
	}
}

func TestPlaceboTreatmentCatchesLeakyPipeline(t *testing.T) {
	f := confounded(3, 4000, 3)
	// A broken "estimator" that ignores the treatment column entirely and
	// reports the C coefficient: shuffling treatment cannot move it, so the
	// placebo run reproduces the full effect and the refuter must fail it.
	leaky := func(g *data.Frame) (estimate.Estimate, error) {
		res, err := estimate.OLS(g, "L", "C")
		if err != nil {
			return estimate.Estimate{}, err
		}
		coef, _ := res.Coefficient("C")
		return estimate.Estimate{Method: "leaky", Effect: coef, SE: 0.01, N: g.Len()}, nil
	}
	ref, err := PlaceboTreatment(f, "R", leaky, mathx.NewRNG(4), 10)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Passed {
		t.Fatalf("leaky pipeline passed the placebo refuter: %v", ref)
	}
}

func TestRandomCommonCause(t *testing.T) {
	f := confounded(5, 4000, 3)
	est := func(g *data.Frame, extra string) (estimate.Estimate, error) {
		adjust := []string{"C"}
		if extra != "" {
			adjust = append(adjust, extra)
		}
		return estimate.Regression(g, "R", "L", adjust)
	}
	ref, err := RandomCommonCause(f, est, mathx.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Passed {
		t.Fatalf("random common cause moved a sound estimate: %v", ref)
	}
}

func TestDataSubset(t *testing.T) {
	f := confounded(7, 6000, 3)
	ref, err := DataSubset(f, regEst, mathx.NewRNG(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Passed {
		t.Fatalf("stable estimate failed subset refuter: %v", ref)
	}
	if ref.String() == "" {
		t.Fatal("empty render")
	}
}
