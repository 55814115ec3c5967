package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/mathx"
	"sisyphus/internal/parallel"
)

// placeboFamily is the input Table 1's estimator stage builds its panels
// from: donor rows and masks shared by every treated unit, and one treated
// row, mask and t0 per unit.
type placeboFamily struct {
	times    []float64
	donors   []string
	donorY   [][]float64
	donorObs [][]bool
	treated  []string
	treatedY [][]float64
	treatObs [][]bool
	t0       []int
}

// newPlaceboFamily draws a family on a three-factor model: 12 donors and
// three treated units over 60 bins. Treated units t1 and t2 share t0 = 24
// and t3 has t0 = 36. Cells go missing the way probe drops and vantage
// outages leave them: about 10% of each row's bins at random, d00 dark for
// 70% of the study (dropped by the coverage policy), and t2 with a six-bin
// outage across its treatment date (imputed, never dropped). Donors d03 and
// d04 are fully observed.
func newPlaceboFamily(seed uint64) placeboFamily {
	const nBins = 60
	r := mathx.NewRNG(seed)
	factors := make([][]float64, 3)
	for k := range factors {
		factors[k] = make([]float64, nBins)
		level := 20 + 10*r.Float64()
		for t := range factors[k] {
			factors[k][t] = level + 3*math.Sin(float64(t)/4+float64(k)) + r.Normal(0, 0.3)
		}
	}
	row := func() ([]float64, []bool) {
		y := make([]float64, nBins)
		obs := make([]bool, nBins)
		var loads [3]float64
		for k := range loads {
			loads[k] = 0.5 + r.Float64()
		}
		for t := range y {
			for k := range loads {
				y[t] += loads[k] * factors[k][t]
			}
			y[t] += r.Normal(0, 1)
			obs[t] = r.Intn(10) != 0
			if !obs[t] {
				y[t] = 0 // the collector's placeholder; Apply re-imputes it
			}
		}
		return y, obs
	}
	f := placeboFamily{times: make([]float64, nBins)}
	for t := range f.times {
		f.times[t] = float64(t) * 12
	}
	for i := 0; i < 12; i++ {
		y, obs := row()
		switch i {
		case 0:
			for t := range obs {
				obs[t] = obs[t] && t%10 < 3
			}
		case 3, 4:
			for t := range obs {
				obs[t] = true
			}
		}
		f.donors = append(f.donors, fmt.Sprintf("d%02d", i))
		f.donorY = append(f.donorY, y)
		f.donorObs = append(f.donorObs, obs)
	}
	for i, t0 := range []int{24, 24, 36} {
		y, obs := row()
		for t := t0; t < nBins; t++ {
			y[t] -= 2 // the treatment effect
		}
		if i == 1 {
			for t := t0 - 3; t < t0+3; t++ {
				obs[t] = false
			}
		}
		f.treated = append(f.treated, fmt.Sprintf("t%d", i+1))
		f.treatedY = append(f.treatedY, y)
		f.treatObs = append(f.treatObs, obs)
		f.t0 = append(f.t0, t0)
	}
	return f
}

// withInf sets the named donors' cell to an observed +Inf. Two donors that
// share a +Inf post-period cell make their own placebo fits compare +Inf
// with a synthetic +Inf, a NaN ratio: skipped placebos.
func (f placeboFamily) withInf(cell int, donors ...int) placeboFamily {
	for _, j := range donors {
		f.donorY[j][cell] = math.Inf(1)
		f.donorObs[j][cell] = true
	}
	return f
}

// panel builds treated unit i's panel exactly as the estimator stage does:
// the unit in row 0, the donors after it, the missing-cell policy applied.
func (f placeboFamily) panel(t *testing.T, i int, minCoverage float64) *synthetic.Panel {
	t.Helper()
	units := append([]string{f.treated[i]}, f.donors...)
	y := mathx.NewMatrix(len(units), len(f.times))
	y.SetRow(0, f.treatedY[i])
	observed := [][]bool{f.treatObs[i]}
	for j, dy := range f.donorY {
		y.SetRow(j+1, dy)
		observed = append(observed, f.donorObs[j])
	}
	masked, err := synthetic.NewMaskedPanel(units, f.times, y, observed)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := masked.Apply(synthetic.MissingPolicy{MinCoverage: minCoverage, KeepUnits: []string{f.treated[i]}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSharedPlacebos runs every treated unit of f, in order, through one
// stage's sharedPlacebos and through a per-unit synthetic.PlaceboTest, and
// fails unless both give the same error string or the same p-value, ratios,
// skipped list and treated fit, bit for bit. It returns the shared results.
func checkSharedPlacebos(t *testing.T, name string, ctx context.Context, f placeboFamily, minCoverage float64, cfg synthetic.Config) ([]*synthetic.PlaceboResult, []error) {
	t.Helper()
	shared := newSharedPlacebos(cfg)
	var results []*synthetic.PlaceboResult
	var errs []error
	for i, u := range f.treated {
		p := f.panel(t, i, minCoverage)
		got, gotErr := shared.test(ctx, p, u, f.t0[i])
		want, wantErr := synthetic.PlaceboTest(ctx, p, u, f.t0[i], cfg)
		results, errs = append(results, got), append(errs, gotErr)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %s: shared error %v, per-unit error %v", name, u, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s %s: shared error %q, per-unit error %q", name, u, gotErr, wantErr)
			}
			continue
		}
		if math.Float64bits(got.PValue) != math.Float64bits(want.PValue) {
			t.Fatalf("%s %s: shared p = %v, per-unit p = %v", name, u, got.PValue, want.PValue)
		}
		if len(got.Ratios) != len(want.Ratios) {
			t.Fatalf("%s %s: %d shared ratios, %d per-unit", name, u, len(got.Ratios), len(want.Ratios))
		}
		for d, r := range want.Ratios {
			g, ok := got.Ratios[d]
			if !ok || math.Float64bits(g) != math.Float64bits(r) {
				t.Fatalf("%s %s: placebo %s ratio shared %v (present %v), per-unit %v", name, u, d, g, ok, r)
			}
		}
		if fmt.Sprint(got.Skipped) != fmt.Sprint(want.Skipped) {
			t.Fatalf("%s %s: shared skipped %v, per-unit %v", name, u, got.Skipped, want.Skipped)
		}
		gt, wt := got.Treated, want.Treated
		if !sameBits(gt.Weights, wt.Weights) || !sameBits(gt.Synthetic, wt.Synthetic) ||
			!sameBits([]float64{gt.ATT, gt.RMSERatio, gt.PreRMSE}, []float64{wt.ATT, wt.RMSERatio, wt.PreRMSE}) {
			t.Fatalf("%s %s: treated fits differ", name, u)
		}
	}
	return results, errs
}

// TestSharedPlacebosMatchPerUnit holds Table 1's one-donor-side-per-t0
// placebo inference to a fresh synthetic.PlaceboTest per unit, under both
// estimators and two pool widths, on gappy masks with a dropped donor and
// skipped placebos; and on the error paths: every placebo failing, too few
// donors surviving the coverage policy, a treated fit that fails before
// any placebo is fit, and a cancelled context.
func TestSharedPlacebosMatchPerUnit(t *testing.T) {
	f := newPlaceboFamily(5)
	if p := f.panel(t, 0, 0); len(p.Units) != 12 {
		t.Fatalf("panel has %d units; the policy should have dropped d00", len(p.Units))
	}
	for _, method := range []synthetic.Method{synthetic.Classic, synthetic.Robust} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%v/%d workers", method, workers)
			cfg := synthetic.Config{Method: method, Pool: parallel.NewPool(workers)}
			res, _ := checkSharedPlacebos(t, name, context.Background(), f, 0, cfg)
			// The ratios must tell t0 = 24 from t0 = 36, or answering t3
			// from t1's placebos would go unnoticed.
			if fmt.Sprint(res[0].Ratios) == fmt.Sprint(res[2].Ratios) {
				t.Fatalf("%s: t0 = 24 and t0 = 36 placebos have the same ratios", name)
			}
			res, _ = checkSharedPlacebos(t, name+" skips", context.Background(), newPlaceboFamily(5).withInf(50, 3, 4), 0, cfg)
			if len(res[0].Skipped) == 0 || len(res[0].Ratios) == 0 {
				t.Fatalf("%s skips: %d placebos skipped, %d ranked", name, len(res[0].Skipped), len(res[0].Ratios))
			}
		}
	}

	cfg := synthetic.Config{Method: synthetic.Classic, Pool: parallel.NewPool(2)}

	// Every donor shares a +Inf post cell: every placebo ratio is NaN, so
	// each t0's donor side fails, and the failure is remembered for t2.
	allInf := newPlaceboFamily(5).withInf(50, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	_, errs := checkSharedPlacebos(t, "all placebos fail", context.Background(), allInf, 0, cfg)
	for i, err := range errs {
		if err == nil || err.Error() != "synthetic: all 11 placebo fits failed" {
			t.Fatalf("all placebos fail: %s error %v", allInf.treated[i], err)
		}
	}

	// Full coverage required: d03 and d04 are the only fully observed
	// donors, and a gap in d04 leaves d03 alone, too few for placebos.
	oneDonor := newPlaceboFamily(5)
	oneDonor.donorObs[4][10] = false
	_, errs = checkSharedPlacebos(t, "one donor", context.Background(), oneDonor, 1, cfg)
	for i, err := range errs {
		if err == nil || err.Error() != "synthetic: placebo test needs at least 2 donors" {
			t.Fatalf("one donor: %s error %v", oneDonor.treated[i], err)
		}
	}

	// t1's own fit fails (t0 = 60 leaves no post periods) before any
	// placebo is fit; t2 and t3 must come out as they would alone.
	late := newPlaceboFamily(5)
	late.t0 = []int{60, 24, 36}
	_, errs = checkSharedPlacebos(t, "failed treated fit", context.Background(), late, 0, cfg)
	if errs[0] == nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("failed treated fit: errors %v", errs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs = checkSharedPlacebos(t, "cancelled", ctx, f, 0, cfg)
	for i, err := range errs {
		if err != context.Canceled {
			t.Fatalf("cancelled: %s error %v", f.treated[i], err)
		}
	}
}
