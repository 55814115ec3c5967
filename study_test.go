package sisyphus

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
)

// confoundedFrame builds the running example with a binary route change.
func confoundedFrame(seed uint64, n int, effect float64) *data.Frame {
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

func TestStudyFullProtocol(t *testing.T) {
	s := NewStudy("Does a route change increase user latency?")
	if err := s.WithGraphText("C -> R; C -> L; R -> L"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("R", "L"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if !id.Identifiable {
		t.Fatal("running example should be identifiable")
	}
	if len(id.AdjustmentSets) != 1 || id.AdjustmentSets[0][0] != "C" {
		t.Fatalf("adjustment sets = %v", id.AdjustmentSets)
	}
	if !strings.Contains(id.Strategy, "backdoor") {
		t.Fatalf("strategy = %q", id.Strategy)
	}

	s.WithData(confoundedFrame(1, 8000, 3))
	naive, err := s.EstimateEffect(Naive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Effect < 4 {
		t.Fatalf("naive should be confounded upward: %v", naive.Effect)
	}
	for _, m := range []EstimationMethod{BackdoorStratified, BackdoorRegression, BackdoorIPW, Auto} {
		est, err := s.EstimateEffect(m)
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if math.Abs(est.Effect-3) > 0.5 {
			t.Fatalf("method %d: effect = %v want ≈3", m, est.Effect)
		}
	}

	rep := s.Report()
	for _, want := range []string{"route change", "R <- C -> L", "Strategy", "Estimate"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestStudyIVPath(t *testing.T) {
	// Latent confounder: backdoor unavailable, instrument Z available.
	r := mathx.NewRNG(2)
	n := 10000
	z := make([]float64, n)
	tr := make([]float64, n)
	l := make([]float64, n)
	for i := 0; i < n; i++ {
		u := r.Normal(0, 1)
		if r.Bernoulli(0.5) {
			z[i] = 1
		}
		tr[i] = 0.9*z[i] + u + r.Normal(0, 0.3)
		l[i] = 4 + 1.5*tr[i] + 2*u + r.Normal(0, 0.3)
	}
	f, _ := data.FromColumns(map[string][]float64{"Z": z, "R": tr, "L": l})

	s := NewStudy("maintenance as instrument")
	if err := s.WithGraphText("U [latent]; U -> R; U -> L; Z -> R; R -> L"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("R", "L"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if len(id.AdjustmentSets) != 0 {
		t.Fatalf("latent confounder should block backdoor: %v", id.AdjustmentSets)
	}
	if len(id.Instruments) != 1 || id.Instruments[0] != "Z" {
		t.Fatalf("instruments = %v", id.Instruments)
	}
	s.WithData(f)
	est, err := s.EstimateEffect(Auto)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Effect-1.5) > 0.2 {
		t.Fatalf("IV estimate = %v want ≈1.5", est.Effect)
	}
}

func TestStudyNotIdentifiable(t *testing.T) {
	s := NewStudy("pure latent confounding")
	if err := s.WithGraphText("U [latent]; U -> R; U -> L; R -> L"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("R", "L"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Identifiable {
		t.Fatal("should not be identifiable")
	}
	if !strings.Contains(id.Strategy, "intervention") {
		t.Fatalf("strategy = %q", id.Strategy)
	}
	s.WithData(confoundedFrame(3, 200, 1))
	if _, err := s.EstimateEffect(Auto); err == nil {
		t.Fatal("Auto should refuse unidentifiable effects")
	}
}

// TestStudyAdjustsForMeasuredSet: the graph admits two minimal adjustment
// sets, [A] and [B], and the data has a column for B only. EstimateEffect
// and Refute must adjust for B, as POST /query would, rather than fail on
// the first set's missing column.
func TestStudyAdjustsForMeasuredSet(t *testing.T) {
	r := mathx.NewRNG(5)
	const n, effect = 4000, 3.0
	tr, b, y := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range tr {
		a := r.Normal(0, 1)
		if 0.8*a+r.Normal(0, 1) > 0 {
			tr[i] = 1
		}
		b[i] = a + r.Normal(0, 0.3)
		y[i] = 10 + 2*b[i] + effect*tr[i] + r.Normal(0, 0.5)
	}
	f, err := data.FromColumns(map[string][]float64{"T": tr, "B": b, "Y": y})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy("two adjustment sets, one measured")
	if err := s.WithGraphText("A -> T; A -> B; B -> Y; T -> Y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("T", "Y"); err != nil {
		t.Fatal(err)
	}
	s.WithData(f)
	id, err := s.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(id.AdjustmentSets) != "[[A] [B]]" {
		t.Fatalf("adjustment sets = %v, want [[A] [B]]", id.AdjustmentSets)
	}
	for _, m := range []EstimationMethod{Auto, BackdoorRegression, BackdoorStratified, BackdoorIPW} {
		est, err := s.EstimateEffect(m)
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if math.Abs(est.Effect-effect) > 0.5 {
			t.Fatalf("method %d: effect %v, want about %v", m, est.Effect, effect)
		}
	}
	if _, err := s.Refute(1); err != nil {
		t.Fatal(err)
	}
}

func TestStudyColliderWarning(t *testing.T) {
	s := NewStudy("speed-test selection")
	if err := s.WithGraphText("C -> R; C -> L; R -> L; R -> T; L -> T"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("R", "L"); err != nil {
		t.Fatal(err)
	}
	id, err := s.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if len(id.ColliderWarnings) == 0 {
		t.Fatal("expected a collider warning about conditioning on T")
	}
	if !strings.Contains(id.ColliderWarnings[0], `"T"`) {
		t.Fatalf("warning = %v", id.ColliderWarnings)
	}
}

func TestStudyValidateImplications(t *testing.T) {
	// True model: C -> R, C -> L, R -> L. Implication of the *wrong* graph
	// "C -> R; C -> L" (no R->L edge): R ⊥ L | C — should be rejected when
	// the R → L effect exists.
	s := NewStudy("model check")
	if err := s.WithGraphText("C -> R; C -> L"); err != nil {
		t.Fatal(err)
	}
	s.WithData(confoundedFrame(4, 6000, 3))
	checks, err := s.ValidateImplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 {
		t.Fatalf("checks = %v", checks)
	}
	if checks[0].Consistent {
		t.Fatalf("wrong graph's implication should be rejected: %v", checks[0])
	}
	// The right graph has no implications among observed nodes (complete).
	s2 := NewStudy("right graph")
	_ = s2.WithGraphText("C -> R; C -> L; R -> L")
	s2.WithData(confoundedFrame(5, 6000, 3))
	checks2, err := s2.ValidateImplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks2) != 0 {
		t.Fatalf("complete graph should imply nothing: %v", checks2)
	}
	// A graph with a TRUE implication: generate data with no R -> L.
	s3 := NewStudy("null effect")
	_ = s3.WithGraphText("C -> R; C -> L")
	s3.WithData(confoundedFrame(6, 6000, 0))
	checks3, err := s3.ValidateImplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks3) != 1 || !checks3[0].Consistent {
		t.Fatalf("true implication rejected: %v", checks3)
	}
}

func TestStudyErrorsAndGuards(t *testing.T) {
	s := NewStudy("empty")
	if _, err := s.Identify(); err == nil {
		t.Fatal("identify without graph accepted")
	}
	if err := s.Effect("A", "B"); err == nil {
		t.Fatal("effect without graph accepted")
	}
	if err := s.WithGraphText("A -> B"); err != nil {
		t.Fatal(err)
	}
	if err := s.Effect("A", "Z"); err == nil {
		t.Fatal("unknown outcome accepted")
	}
	if err := s.WithGraphText("A -> -> B"); err == nil {
		t.Fatal("bad graph text accepted")
	}
	if _, err := s.ValidateImplications(); err == nil {
		t.Fatal("validate without data accepted")
	}
	if _, err := s.EstimateEffect(Naive); err == nil {
		t.Fatal("estimate without data accepted")
	}
	rep := s.Report()
	if !strings.Contains(rep, "no effect declared") {
		t.Fatalf("report = %q", rep)
	}
}

func TestCITestKnownCases(t *testing.T) {
	f := confoundedFrame(7, 5000, 0) // no direct R -> L effect
	// R ⊥ L | C should hold.
	s := NewStudy("x")
	_ = s
	res, err := ciHelper(f, "R", "L", []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatalf("true CI rejected: %v", res)
	}
	// R ⊥ L unconditionally should fail (confounded).
	res2, err := ciHelper(f, "R", "L", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Consistent {
		t.Fatalf("confounded marginal independence accepted: %v", res2)
	}
}
