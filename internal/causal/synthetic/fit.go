package synthetic

import (
	"fmt"
	"math"

	"sisyphus/internal/mathx"
)

// Fit estimates a synthetic control for the named treated unit with
// treatment starting at column t0 (the first post period). All other panel
// units form the donor pool; callers must exclude contaminated donors (units
// that were themselves treated) before building the panel.
func Fit(p *Panel, treated string, t0 int, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	ti, err := p.UnitIndex(treated)
	if err != nil {
		return nil, err
	}
	if t0 < cfg.MinPre {
		return nil, fmt.Errorf("synthetic: only %d pre periods, need at least %d", t0, cfg.MinPre)
	}
	if t0 >= p.Y.Cols {
		return nil, fmt.Errorf("synthetic: t0=%d leaves no post periods (T=%d)", t0, p.Y.Cols)
	}

	nDonors := len(p.Units) - 1
	donors := make([]string, 0, nDonors)
	donorRows := make([]int, 0, nDonors)
	for i, u := range p.Units {
		if i == ti {
			continue
		}
		donors = append(donors, u)
		donorRows = append(donorRows, i)
	}

	// Pre-period design: rows = pre times, cols = donors.
	pre := mathx.NewMatrix(t0, nDonors)
	for j, row := range donorRows {
		for t := 0; t < t0; t++ {
			pre.Set(t, j, p.Y.At(row, t))
		}
	}
	target := make(mathx.Vector, t0)
	for t := 0; t < t0; t++ {
		target[t] = p.Y.At(ti, t)
	}

	var w mathx.Vector
	switch cfg.Method {
	case Classic:
		w = simplexWeights(pre, target, cfg.MaxIter)
	case Robust:
		w, err = robustWeights(pre, target, cfg)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("synthetic: unknown method %v", cfg.Method)
	}

	// Build full synthetic trajectory.
	T := p.Y.Cols
	synth := make(mathx.Vector, T)
	actual := make(mathx.Vector, T)
	for t := 0; t < T; t++ {
		actual[t] = p.Y.At(ti, t)
		var s float64
		for j, row := range donorRows {
			s += w[j] * p.Y.At(row, t)
		}
		synth[t] = s
	}

	res := &Result{
		Unit: treated, Donors: donors, Weights: w,
		Actual: actual, Synthetic: synth, T0: t0,
	}
	res.PreRMSE = mathx.RMSE(actual[:t0], synth[:t0])
	res.PostRMSE = mathx.RMSE(actual[t0:], synth[t0:])
	res.RMSERatio = rmseRatio(res.PostRMSE, res.PreRMSE)
	gap := res.Gap()[t0:]
	res.ATT = gap.Mean()
	res.MedianGap = mathx.Median(gap)
	return res, nil
}

// rmseRatio is the post/pre RMSE ratio, +Inf when the pre-period fit is
// exact (or its RMSE is NaN): a perfect pre-fit makes any post divergence
// infinitely surprising.
func rmseRatio(post, pre float64) float64 {
	if pre > 0 {
		return post / pre
	}
	return math.Inf(1)
}

// simplexWeights minimizes ||target − pre·w||² over the probability simplex
// using Frank–Wolfe with exact line search (the objective is quadratic).
//
// The iteration allocates nothing: the work vectors are made once per fit
// and column j of pre is row j of the one transposed copy. Every value takes
// the same float operations in the same order as in the allocating
// simplexWeightsReference the tests hold it to, bit for bit. That includes
// A·w, which is recomputed from w each iteration rather than updated along
// d: the update would round differently.
func simplexWeights(pre *mathx.Matrix, target mathx.Vector, maxIter int) mathx.Vector {
	m, n := pre.Rows, pre.Cols
	w := make(mathx.Vector, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	grad := make(mathx.Vector, n)
	aw := make(mathx.Vector, m)
	ad := make(mathx.Vector, m)
	resid := make(mathx.Vector, m)
	pre.MulVecTo(aw, w)
	for i := range resid {
		resid[i] = aw[i] - target[i] // A w − b
	}
	preT := pre.T()
	for iter := 0; iter < maxIter; iter++ {
		preT.MulVecTo(grad, resid)
		// Linear minimization oracle over the simplex: the best vertex.
		j := 0
		for k := 1; k < n; k++ {
			if grad[k] < grad[j] {
				j = k
			}
		}
		// Direction d = e_j − w; step minimizes the quadratic along d.
		// A d = A e_j − A w = col_j − A w.
		col := preT.Data[j*m : (j+1)*m]
		pre.MulVecTo(aw, w)
		for i := range ad {
			ad[i] = col[i] - aw[i]
		}
		denom := ad.Dot(ad)
		if denom < 1e-18 {
			break
		}
		gamma := -resid.Dot(ad) / denom
		if gamma <= 0 {
			break // vertex already optimal along this direction
		}
		if gamma > 1 {
			gamma = 1
		}
		for k := range w {
			w[k] *= 1 - gamma
		}
		w[j] += gamma
		resid.AddScaled(gamma, ad)
		if gamma < 1e-12 {
			break
		}
	}
	return w
}

// robustWeights implements the Amjad–Shah–Shen estimator: hard-threshold the
// donor pre matrix's singular values to strip measurement noise, then solve
// a ridge regression of the treated pre trajectory on the denoised donors.
func robustWeights(pre *mathx.Matrix, target mathx.Vector, cfg Config) (mathx.Vector, error) {
	svd := mathx.ComputeSVD(pre)
	var denoised *mathx.Matrix
	if cfg.Rank > 0 {
		denoised = svd.Reconstruct(cfg.Rank)
	} else {
		denoised = svd.HardThreshold(universalThreshold(svd.S))
	}
	lambda := cfg.RidgeLambda * float64(pre.Rows)
	w, err := mathx.RidgeSolve(denoised, target, lambda)
	if err != nil {
		return nil, fmt.Errorf("synthetic: robust ridge solve: %w", err)
	}
	return w, nil
}

// universalThreshold is a pragmatic variant of the Gavish–Donoho universal
// singular-value threshold: 2.858 × median singular value. It keeps at
// least the top singular value so the estimator never degenerates to zero.
func universalThreshold(s mathx.Vector) float64 {
	if len(s) == 0 {
		return 0
	}
	med := mathx.Median(s)
	tau := 2.858 * med
	if tau >= s[0] {
		// Never drop everything: keep (at least) the dominant direction.
		tau = math.Nextafter(s[0], 0) // just below the top singular value
	}
	return tau
}
