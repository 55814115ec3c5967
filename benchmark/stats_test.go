package main

import (
	"math"
	"testing"

	"sisyphus/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestQuantileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		ok    bool
		value float64
	}{
		{999, 0.99, false, 0},   // rank 990: 9 beyond
		{1000, 0.99, true, 990}, // rank 990: 10 beyond
		{1320, 0.99, true, 1307},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{1, 0.5, true, 1}, // the median is always allowed
		{4, 0.5, true, 2},
	} {
		v, err := quantile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("quantile(n=%d, q=%g): err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
			continue
		}
		if tc.ok && v != tc.value {
			t.Errorf("quantile(n=%d, q=%g) = %g, want %g", tc.n, tc.q, v, tc.value)
		}
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("quantile of no samples must fail")
	}
}

func TestQuantileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestCoveredUnionsAndClips(t *testing.T) {
	within := interval{10, 20}
	for _, tc := range []struct {
		name string
		ivs  []interval
		want float64
	}{
		{"none", nil, 0},
		{"inside", []interval{{12, 14}}, 2},
		{"overlapping children count once", []interval{{12, 16}, {14, 18}}, 6},
		{"nested", []interval{{11, 19}, {12, 13}}, 8},
		{"clipped at both ends", []interval{{5, 12}, {18, 30}}, 4},
		{"outside", []interval{{0, 10}, {20, 25}}, 0},
		{"disjoint", []interval{{11, 12}, {15, 17}}, 3},
	} {
		if got := covered(within, tc.ivs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: covered = %g, want %g", tc.name, got, tc.want)
		}
	}
	if got := selfTime(within, []interval{{12, 16}, {14, 18}}); got != 4 {
		t.Errorf("selfTime = %g, want 4", got)
	}
}

func TestStageSelfTimeSubtractsCampaignsOfItsScope(t *testing.T) {
	spans := []obs.Span{
		{Name: "table1/scenario", Scope: "table1", StartMs: 0, DurMs: 100},
		{Name: campaignSpan, Scope: "table1", StartMs: 10, DurMs: 30},
		{Name: campaignSpan, Scope: "table1", StartMs: 90, DurMs: 30}, // 10 ms inside
		{Name: campaignSpan, Scope: "did", StartMs: 50, DurMs: 10},    // another scope
		{Name: "table1/estimator", Scope: "table1", StartMs: 100, DurMs: 50},
		{Name: "did/estimator", Scope: "did", StartMs: 40, DurMs: 30},
		{Name: "http/query", Scope: "http/query", StartMs: 0, DurMs: 500}, // not a stage
	}
	got := stageSelfMs(spans)
	// table1/scenario 100 − 40 covered; table1/estimator 50 − 20 covered
	// by the campaign that runs 90–120; did/estimator 30 − 10.
	want := map[string]float64{"scenario": 60, "estimator": 30 + 20}
	for seam, v := range want {
		if math.Abs(got[seam]-v) > 1e-9 {
			t.Errorf("stage %s self = %g, want %g", seam, got[seam], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("seams = %v, want only %v", got, want)
	}
}

func TestHTTPOverheadMatchesOverlappingLanes(t *testing.T) {
	// A cold request (0–100 ms) overlaps two warm ones; each request is
	// matched to its own route span, not the longest one in its window.
	reqs := []clientRequest{
		{"http/experiment", interval{0, 100}},
		{"http/experiment", interval{10, 11}},
		{"http/experiment", interval{50, 50.6}},
		{"http/query", interval{60, 61}},
	}
	spans := []obs.Span{
		{Name: "http/experiment", StartMs: 0.2, DurMs: 99.5},
		{Name: "http/experiment", StartMs: 10.1, DurMs: 0.5},
		{Name: "http/experiment", StartMs: 50.1, DurMs: 0.4},
		{Name: "http/query", StartMs: 60.3, DurMs: 0.5},
	}
	got := httpOverheads(reqs, spans)
	want := []float64{0.2, 0.5, 0.5, 0.5} // shortest request first
	if len(got) != len(want) {
		t.Fatalf("matched %d requests, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("overhead[%d] = %g, want %g (all %v)", i, got[i], want[i], got)
		}
	}
}
