package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("n = %d", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !almostEqual(s.Var, 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v", s.Var)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Median) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestQuantileEndpointsAndInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("q0.5 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("quantile of empty should be NaN")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Correlation(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("corr = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("corr = %v", got)
	}
}

func TestCovarianceMatchesVariance(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got, want := Covariance(xs, xs), Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("cov(x,x) = %v, var = %v", got, want)
	}
}

func TestWelchTNoDifference(t *testing.T) {
	r := NewRNG(5)
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.Normal(10, 2)
		b[i] = r.Normal(10, 2)
	}
	_, p := WelchT(a, b)
	if p < 0.001 {
		t.Fatalf("same-distribution p-value implausibly small: %v", p)
	}
}

func TestWelchTClearDifference(t *testing.T) {
	r := NewRNG(6)
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = r.Normal(10, 1)
		b[i] = r.Normal(12, 1)
	}
	tStat, p := WelchT(a, b)
	if p > 1e-6 {
		t.Fatalf("clear difference not detected: p=%v", p)
	}
	if tStat >= 0 {
		t.Fatalf("t should be negative (a < b): %v", tStat)
	}
}

func TestNormalCDFSymmetry(t *testing.T) {
	for _, x := range []float64{0, 0.5, 1, 2, 3} {
		if got := NormalCDF(x) + NormalCDF(-x); !almostEqual(got, 1, 1e-12) {
			t.Fatalf("cdf(%v)+cdf(-%v) = %v", x, x, got)
		}
		if got := NormalCDF(x) + NormalSurvival(x); !almostEqual(got, 1, 1e-12) {
			t.Fatalf("cdf+survival at %v = %v", x, got)
		}
	}
	if !almostEqual(NormalCDF(0), 0.5, 1e-12) {
		t.Fatal("cdf(0) != 0.5")
	}
	if !almostEqual(NormalCDF(1.96), 0.975, 1e-3) {
		t.Fatalf("cdf(1.96) = %v", NormalCDF(1.96))
	}
}

func TestStudentTAgainstKnownValues(t *testing.T) {
	// With df large, t survival approaches normal survival.
	if got, want := studentTSurvival(1.96, 1e6), NormalSurvival(1.96); !almostEqual(got, want, 1e-4) {
		t.Fatalf("t survival = %v want ~%v", got, want)
	}
	// t(df=10): P(T > 2.228) ≈ 0.025 (classic table value).
	if got := studentTSurvival(2.228, 10); !almostEqual(got, 0.025, 1e-3) {
		t.Fatalf("t10 survival = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := true
	a2 := NewRNG(123)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(77)
	n := 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("out of range: %v", x)
		}
		sum += x
		sq += x * x
	}
	mean := sum / float64(n)
	if !almostEqual(mean, 0.5, 0.01) {
		t.Fatalf("uniform mean = %v", mean)
	}
	if v := sq/float64(n) - mean*mean; !almostEqual(v, 1.0/12, 0.01) {
		t.Fatalf("uniform var = %v", v)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(88)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(5, 3)
	}
	s := Summarize(xs)
	if !almostEqual(s.Mean, 5, 0.05) {
		t.Fatalf("normal mean = %v", s.Mean)
	}
	if !almostEqual(s.Std, 3, 0.05) {
		t.Fatalf("normal std = %v", s.Std)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(11)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	if got := sum / float64(n); !almostEqual(got, 0.5, 0.02) {
		t.Fatalf("exp mean = %v", got)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(13)
	for _, lambda := range []float64{0.5, 3, 80} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		if got := sum / float64(n); !almostEqual(got, lambda, lambda*0.05+0.05) {
			t.Fatalf("poisson(%v) mean = %v", lambda, got)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(30)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	childA := parent.Split()
	childB := parent.Split()
	diff := false
	for i := 0; i < 16; i++ {
		if childA.Uint64() != childB.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split children produced identical streams")
	}
}
