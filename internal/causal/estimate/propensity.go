package estimate

import (
	"fmt"
	"math"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
)

// Logistic fits a logistic regression P(y=1 | x) = σ(β₀ + Σ βⱼ xⱼ) by
// Newton–Raphson (IRLS). outcome must be binary {0,1}.
type Logistic struct {
	Names []string
	Coef  mathx.Vector
	Iter  int
}

// FitLogistic fits a logistic regression of the binary outcome on the given
// regressors plus an intercept.
func FitLogistic(f *data.Frame, outcome string, regressors ...string) (*Logistic, error) {
	n := f.Len()
	p := len(regressors) + 1
	if n < p+1 {
		return nil, fmt.Errorf("estimate: %d rows too few for logistic with %d regressors", n, len(regressors))
	}
	y := f.MustColumn(outcome)
	for _, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("estimate: logistic outcome must be binary, got %v", v)
		}
	}
	x := mathx.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
	}
	for j, name := range regressors {
		col, ok := f.Column(name)
		if !ok {
			return nil, fmt.Errorf("estimate: no column %q", name)
		}
		for i := 0; i < n; i++ {
			x.Set(i, j+1, col[i])
		}
	}

	beta := make(mathx.Vector, p)
	const maxIter = 50
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		// mu_i = sigmoid(x_i · beta); W = diag(mu(1-mu)).
		grad := make(mathx.Vector, p)
		hess := mathx.NewMatrix(p, p)
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			mu := sigmoid(xi.Dot(beta))
			w := mu * (1 - mu)
			if w < 1e-10 {
				w = 1e-10
			}
			for a := 0; a < p; a++ {
				grad[a] += (y[i] - mu) * xi[a]
				for b := 0; b < p; b++ {
					hess.Set(a, b, hess.At(a, b)+w*xi[a]*xi[b])
				}
			}
		}
		// Small ridge keeps the Hessian invertible under separation.
		for a := 0; a < p; a++ {
			hess.Set(a, a, hess.At(a, a)+1e-8)
		}
		step, err := mathx.SolveLinear(hess, grad)
		if err != nil {
			return nil, fmt.Errorf("estimate: logistic Newton step failed: %w", err)
		}
		beta = beta.Add(step)
		if step.Norm() < 1e-10 {
			break
		}
	}
	return &Logistic{Names: append([]string{"(intercept)"}, regressors...), Coef: beta, Iter: iter + 1}, nil
}

// Predict returns P(y=1 | row) for the named regressor values.
func (l *Logistic) Predict(row map[string]float64) float64 {
	s := l.Coef[0]
	for j := 1; j < len(l.Names); j++ {
		s += l.Coef[j] * row[l.Names[j]]
	}
	return sigmoid(s)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// IPW estimates the ATE by inverse propensity weighting: a logistic
// propensity model e(x) = P(T=1 | adjust) is fitted, then the Hájek
// (normalized) estimator contrasts weighted outcome means. Propensities are
// clipped to [clip, 1-clip] to control variance; clip <= 0 defaults to 0.01.
func IPW(f *data.Frame, treatment, outcome string, adjust []string, clip float64) (Estimate, error) {
	if clip <= 0 {
		clip = 0.01
	}
	model, err := FitLogistic(f, treatment, adjust...)
	if err != nil {
		return Estimate{}, err
	}
	tr := f.MustColumn(treatment)
	y := f.MustColumn(outcome)
	var sw1, swy1, sw0, swy0 float64
	var weights1, weights0 []float64
	n := f.Len()
	for i := 0; i < n; i++ {
		e := model.Predict(f.Row(i))
		e = math.Min(math.Max(e, clip), 1-clip)
		switch tr[i] {
		case 1:
			w := 1 / e
			sw1 += w
			swy1 += w * y[i]
			weights1 = append(weights1, w)
		case 0:
			w := 1 / (1 - e)
			sw0 += w
			swy0 += w * y[i]
			weights0 = append(weights0, w)
		default:
			return Estimate{}, fmt.Errorf("estimate: IPW treatment must be binary, got %v", tr[i])
		}
	}
	if sw1 == 0 || sw0 == 0 {
		return Estimate{}, ErrNoVariation
	}
	m1 := swy1 / sw1
	m0 := swy0 / sw0

	// Approximate variance via weighted within-arm dispersion.
	var v1, v0 float64
	j1, j0 := 0, 0
	for i := 0; i < n; i++ {
		switch tr[i] {
		case 1:
			w := weights1[j1]
			j1++
			d := y[i] - m1
			v1 += w * w * d * d
		case 0:
			w := weights0[j0]
			j0++
			d := y[i] - m0
			v0 += w * w * d * d
		}
	}
	se := math.Sqrt(v1/(sw1*sw1) + v0/(sw0*sw0))
	return Estimate{
		Method: "inverse propensity weighting (Hájek)",
		Effect: m1 - m0,
		SE:     se,
		N:      n,
		Detail: fmt.Sprintf("propensity clipped at %.3g", clip),
	}, nil
}
