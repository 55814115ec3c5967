package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the percentile rule: a quantile is reported only when at least
// this many samples lie beyond it, so a "p99" of a run with 120 samples —
// one sample, really — can never be printed as if it were a tail.
const minTail = 10

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q·n samples at or below it) and the number
// of samples strictly beyond its rank. It refuses — returns an error — when
// fewer than minTail samples lie beyond the rank. xs need not be sorted and
// is not modified.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail && q > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; the rule needs %d (at least %d samples)",
			q*100, n, beyond, minTail, int(math.Ceil(float64(minTail)/(1-q))))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the 0.5 nearest-rank quantile, which the rule always allows on
// a non-empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := quantile(xs, 0.5)
	return v
}

// interval is a half-open time range [start, end) in milliseconds on one
// clock.
type interval struct{ start, end float64 }

func (iv interval) dur() float64 { return iv.end - iv.start }

// covered returns how much of within the union of ivs covers: overlapping
// children are counted once, and the parts of a child outside within are
// clipped away.
func covered(within interval, ivs []interval) float64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := math.Max(iv.start, within.start), math.Min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE float64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = math.Max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover: the time the layer spent on its own work.
func selfTime(parent interval, children []interval) float64 {
	return parent.dur() - covered(parent, children)
}
