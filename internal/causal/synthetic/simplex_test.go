package synthetic

import (
	"math"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
)

// simplexWeightsReference is the allocating Frank–Wolfe loop simplexWeights
// must match bit for bit: every iteration builds its gradient, A·w, column
// and direction as fresh vectors. It also reports which exit it took, so
// the property test can show every branch was exercised.
func simplexWeightsReference(pre *mathx.Matrix, target mathx.Vector, maxIter int) (mathx.Vector, string) {
	n := pre.Cols
	w := make(mathx.Vector, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	resid := pre.MulVec(w).Sub(target) // A w − b
	preT := pre.T()
	for iter := 0; iter < maxIter; iter++ {
		grad := preT.MulVec(resid)
		// Linear minimization oracle over the simplex: the best vertex.
		j := 0
		for k := 1; k < n; k++ {
			if grad[k] < grad[j] {
				j = k
			}
		}
		// Direction d = e_j − w; step minimizes the quadratic along d.
		// A d = A e_j − A w = col_j − (resid + b) ... compute directly.
		ad := preColumn(pre, j).Sub(pre.MulVec(w))
		denom := ad.Dot(ad)
		if denom < 1e-18 {
			return w, "denom"
		}
		gamma := -resid.Dot(ad) / denom
		if gamma <= 0 {
			return w, "gamma<=0" // vertex already optimal along this direction
		}
		if gamma > 1 {
			gamma = 1
		}
		for k := range w {
			w[k] *= 1 - gamma
		}
		w[j] += gamma
		resid = resid.AddScaled(gamma, ad)
		if gamma < 1e-12 {
			return w, "gamma<1e-12"
		}
	}
	return w, "maxIter"
}

// preColumn returns a copy of column j of m.
func preColumn(m *mathx.Matrix, j int) mathx.Vector {
	out := make(mathx.Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// simplexCase draws one Frank–Wolfe input. kind picks the regime: a dense
// target outside the donor hull (runs to maxIter), identical donor columns
// (A·d = 0: the denom exit), a target exactly at the uniform start (zero
// residual: the gamma <= 0 exit), a target a hair from the start along one
// vertex direction (a vanishing step: the gamma < 1e-12 or gamma <= 0
// exit), a target inside the hull, and sparse matrices with zero columns.
func simplexCase(seed uint64, kind int) (*mathx.Matrix, mathx.Vector) {
	r := mathx.NewRNG(seed)
	m, n := 1+r.Intn(30), 1+r.Intn(20)
	pre := mathx.NewMatrix(m, n)
	for i := range pre.Data {
		pre.Data[i] = 20 + r.Normal(0, 5)
	}
	target := make(mathx.Vector, m)
	for i := range target {
		target[i] = 20 + r.Normal(0, 8)
	}
	uniform := func() mathx.Vector {
		w := make(mathx.Vector, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return pre.MulVec(w)
	}
	switch kind % 6 {
	case 1:
		for i := 0; i < m; i++ {
			for j := 1; j < n; j++ {
				pre.Set(i, j, pre.At(i, 0))
			}
		}
	case 2:
		target = uniform()
	case 3:
		aw := uniform()
		j := r.Intn(n)
		eps := math.Pow(10, -13-float64(r.Intn(3)))
		for i := range target {
			target[i] = aw[i] + eps*(pre.At(i, j)-aw[i])
		}
	case 4:
		w := make(mathx.Vector, n)
		var sum float64
		for i := range w {
			w[i] = r.Float64()
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		target = pre.MulVec(w)
	case 5:
		for i := range pre.Data {
			if r.Intn(3) == 0 {
				pre.Data[i] = 0
			}
		}
		zero := r.Intn(n)
		for i := 0; i < m; i++ {
			pre.Set(i, zero, 0)
		}
	}
	return pre, target
}

// TestSimplexWeightsMatchesReference holds the allocation-free loop to the
// allocating one under math.Float64bits on random inputs across every
// regime and iteration budget, and checks that each of the loop's exits
// was taken at least once.
func TestSimplexWeightsMatchesReference(t *testing.T) {
	exits := map[string]int{}
	f := func(seed uint64, kind, rawIter uint8) bool {
		pre, target := simplexCase(seed, int(kind))
		maxIter := 1 + int(rawIter)
		if rawIter%16 == 0 {
			maxIter = 2000
		}
		before := pre.Clone()
		got := simplexWeights(pre, target, maxIter)
		want, exit := simplexWeightsReference(pre, target, maxIter)
		exits[exit]++
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Logf("seed %d kind %d maxIter %d (%s): w[%d] = %v, reference %v", seed, kind%6, maxIter, exit, i, got[i], want[i])
				return false
			}
		}
		for i := range pre.Data {
			if math.Float64bits(pre.Data[i]) != math.Float64bits(before.Data[i]) {
				return false // the input must be left untouched
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1200}); err != nil {
		t.Fatal(err)
	}
	t.Logf("exits: %v", exits)
	for _, exit := range []string{"maxIter", "denom", "gamma<=0", "gamma<1e-12"} {
		if exits[exit] == 0 {
			t.Errorf("no case took the %s exit (exits: %v)", exit, exits)
		}
	}
}

// TestSimplexWeightsAllocationsFlat bounds simplexWeights' allocations: the
// work vectors and the transposed copy are made once per fit, so a fit
// that runs all 2,000 iterations allocates what a one-iteration fit does.
func TestSimplexWeightsAllocationsFlat(t *testing.T) {
	// The Table 1 shape: 29 pre periods by 18 donors, target outside the
	// donor hull so no early exit stops the loop.
	r := mathx.NewRNG(11)
	pre := mathx.NewMatrix(29, 18)
	for i := range pre.Data {
		pre.Data[i] = 20 + r.Normal(0, 5)
	}
	target := make(mathx.Vector, 29)
	for i := range target {
		target[i] = 20 + r.Normal(0, 8)
	}
	if _, exit := simplexWeightsReference(pre, target, 2000); exit != "maxIter" {
		t.Fatalf("fixture exits early (%s); the bound would not cover the loop", exit)
	}
	one := testing.AllocsPerRun(20, func() { simplexWeights(pre, target, 1) })
	full := testing.AllocsPerRun(20, func() { simplexWeights(pre, target, 2000) })
	if full != one || full > 7 {
		t.Fatalf("simplexWeights allocates %v times at 1 iteration and %v at 2000; want equal and at most 7", one, full)
	}
}
