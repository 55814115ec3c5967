package synthetic

import (
	"fmt"
	"math"
	"strings"
)

// sparkRunes are the eight block heights Render draws series with.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Render prints the fitted synthetic control as a compact terminal chart:
// the actual and synthetic trajectories (shared scale), a treatment marker,
// and the headline numbers. Intended for CLI/example output.
func (r *Result) Render() string {
	// Scale both series over their joint range so they are comparable.
	joint := append(append([]float64(nil), r.Actual...), r.Synthetic...)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range joint {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	scale := func(xs []float64) string {
		span := hi - lo
		var sb strings.Builder
		for i, x := range xs {
			if i == r.T0 {
				sb.WriteByte('|') // treatment marker
			}
			idx := 0
			if span > 0 {
				idx = int((x - lo) / span * float64(len(sparkRunes)-1))
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
			sb.WriteRune(sparkRunes[idx])
		}
		return sb.String()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "unit %s (| marks treatment at t=%d)\n", r.Unit, r.T0)
	fmt.Fprintf(&sb, "  actual    %s\n", scale(r.Actual))
	fmt.Fprintf(&sb, "  synthetic %s\n", scale(r.Synthetic))
	fmt.Fprintf(&sb, "  ATT %+.2f  pre-RMSE %.2f  post/pre ratio %.2f\n", r.ATT, r.PreRMSE, r.RMSERatio)
	top := r.TopWeights(3)
	fmt.Fprintf(&sb, "  top donors:")
	for _, d := range top {
		fmt.Fprintf(&sb, " %s=%.2f", d.Donor, d.Weight)
	}
	sb.WriteByte('\n')
	return sb.String()
}
