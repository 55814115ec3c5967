package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// layerMetric is one per-layer metric: the module it measures, its unit,
// and the end-to-end metric and workloads it should move. The catalogue is
// the single list behind BENCHMARK.json's per_layer section and the
// where-the-time-goes table; a traced run reports every entry, and an
// entry a workload bypasses reads 0.
type layerMetric struct {
	name, unit, layer, moves string
	// better is the direction an improvement moves the figure.
	better string
}

var catalogue = buildCatalogue()

func buildCatalogue() []layerMetric {
	var c []layerMetric
	add := func(layer, unit, moves string, names ...string) {
		for _, n := range names {
			c = append(c, layerMetric{name: n, unit: unit, layer: layer, moves: moves, better: betterOf(n)})
		}
	}
	for _, id := range experiments.IDs() {
		add("experiments", "ms", "suite throughput_per_s", "exp."+id+".ms")
	}
	add("pipeline", "ms", "suite, sweep throughput_per_s",
		"stage.scenario.ms", "stage.dataset.ms", "stage.estimator.ms", "stage.report.ms")
	add("netsim/bgp", "count", "suite throughput_per_s, cpu_s; serve latency_p99_ms; sweep unchanged",
		"bgp.destinations", "bgp.sweeps", "bgp.incremental_destinations")
	add("netsim/bgp", "ms", "suite throughput_per_s, cpu_s; serve latency_p99_ms; sweep unchanged",
		"bgp.compute.ms", "bgp.compute.gen.ms")
	add("platform", "ms", "sweep throughput_per_s; suite", "campaign.ms")
	add("platform", "count", "sweep throughput_per_s; suite", "campaign.measurements")
	add("platform", "us", "sweep throughput_per_s; suite", "campaign.us_per_measurement")
	add("causal", "count", "sweep, suite throughput_per_s", "placebo.fits", "power.trials", "scm.mc_draws")
	add("artifact", "count", "sweep throughput_per_s, peak_rss_mb; suite cpu_s, peak_rss_mb; serve latency_p50_ms",
		"cache.hits", "cache.misses", "cache.builds", "cache.evictions")
	add("artifact", "ratio", "sweep throughput_per_s; serve latency_p50_ms", "cache.hit_ratio")
	add("artifact", "MB", "sweep, suite peak_rss_mb", "cache.resident_mb")
	for _, k := range buildKinds {
		add("artifact", "ms", "sweep throughput_per_s; suite cpu_s; serve latency_p99_ms", "cache.build."+k+".ms")
	}
	add("parallel", "count", "suite cpu_s against throughput_per_s", "parallel.batches", "parallel.tasks")
	add("parallel", "ratio", "suite cpu_s against throughput_per_s", "parallel.tasks_per_batch")
	add("sweep", "count", "sweep throughput_per_s", "sweep.cells", "sweep.failed_cells")
	add("sweep", "ms", "sweep throughput_per_s", "sweep.self.ms")
	add("serve", "ms", "serve latency_p50_ms, latency_p99_ms; suite, sweep bypass",
		"http.experiment.p50_ms", "http.experiment.p99_ms", "http.query.p50_ms", "http.query.p90_ms",
		"http.overhead.p50_ms")
	add("serve", "count", "serve latency_p99_ms, cpu_s", "serve.builds")
	add("serve", "ms", "none: validity of serve latency figures", "send_lag.p99_ms")
	add("runtime", "count", "cpu_s, peak_rss_mb on all three", "gc.cycles")
	add("runtime", "s", "cpu_s, peak_rss_mb on all three", "gc.cpu_s")
	add("runtime", "MB", "cpu_s, peak_rss_mb on all three", "alloc.mb")
	add("tracing", "ratio", "none (reported)", "trace.overhead")
	return c
}

// betterOf is "higher" for the figures that count shared or batched work
// and "lower" for time, memory and work done.
func betterOf(name string) string {
	switch name {
	case "cache.hits", "cache.hit_ratio", "parallel.tasks_per_batch", "sweep.cells":
		return "higher"
	}
	return "lower"
}

// buildKinds are the artifact kinds whose build time is reported.
var buildKinds = []string{"world", "rib", "campaign", "qframe", "response", "responsetext", "queryresp"}

// stageSeams are the pipeline's canonical stage names.
var stageSeams = []string{"scenario", "dataset", "estimator", "report"}

// campaignSpan is the platform layer's span, the child a stage's self time
// excludes.
const campaignSpan = "platform/campaign"

// tracer is a traced pass's recorder plus the instant its span clock
// counts from, so the benchmark's own timings can be compared with the
// program's spans. A nil tracer is an untraced pass.
type tracer struct {
	rec   *obs.Recorder
	epoch time.Time
}

func newTracer() *tracer {
	before := time.Now()
	rec := obs.NewRecorder()
	after := time.Now()
	return &tracer{rec: rec, epoch: before.Add(after.Sub(before) / 2)}
}

// attach puts the recorder on ctx; untraced passes get ctx back unchanged.
func (t *tracer) attach(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return obs.With(ctx, t.rec)
}

// recorder is nil on an untraced pass.
func (t *tracer) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// ms converts a wall-clock instant to the span clock.
func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Millisecond)
}

// selfOf is the part of [start, end) no recorded span matching child
// covers.
func (t *tracer) selfOf(start, end time.Time, child func(obs.Span) bool) float64 {
	var kids []interval
	for _, sp := range t.rec.Spans() {
		if child(sp) {
			kids = append(kids, spanInterval(sp))
		}
	}
	return selfTime(interval{t.ms(start), t.ms(end)}, kids)
}

func spanInterval(sp obs.Span) interval { return interval{sp.StartMs, sp.StartMs + sp.DurMs} }

// isStageSpan reports whether sp is a pipeline seam span ("<id>/<seam>").
func isStageSpan(sp obs.Span) bool { return stageSeam(sp) != "" }

func stageSeam(sp obs.Span) string {
	i := strings.LastIndexByte(sp.Name, '/')
	if i < 0 {
		return ""
	}
	if seam := sp.Name[i+1:]; slices.Contains(stageSeams, seam) {
		return seam
	}
	return ""
}

// stageSelfMs sums each seam's self time over spans: a stage span's
// duration minus what the platform/campaign spans of the same scope cover
// of it. Spans carry no parent id, so a campaign counts as a stage's child
// when it lies in the same scope and overlaps the stage's interval.
func stageSelfMs(spans []obs.Span) map[string]float64 {
	campaigns := map[string][]interval{}
	for _, sp := range spans {
		if sp.Name == campaignSpan {
			campaigns[sp.Scope] = append(campaigns[sp.Scope], spanInterval(sp))
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		if seam := stageSeam(sp); seam != "" {
			out[seam] += selfTime(spanInterval(sp), campaigns[sp.Scope])
		}
	}
	return out
}

// storeStats is an artifact store's counters at the end of a window.
type storeStats struct {
	artifact.Stats
	worlds []string
}

func statsOf(s *artifact.Store) storeStats {
	st := storeStats{Stats: s.Stats()}
	for k := range s.PerKey() {
		if k.Kind == "world" && !slices.Contains(st.worlds, k.Scenario) {
			st.worlds = append(st.worlds, k.Scenario)
		}
	}
	sort.Strings(st.worlds)
	return st
}

// counterTotals sums the recorder's counters and gauges over scopes.
func counterTotals(m obs.Metrics) map[string]float64 {
	out := map[string]float64{}
	for _, byName := range m {
		for name, v := range byName {
			out[name] += v
		}
	}
	return out
}

// bgpProbeCalls is how many direct bgp.Compute calls time each world.
const bgpProbeCalls = 30

// bgpComputeMs times bgpProbeCalls direct bgp.Compute calls on a freshly
// built copy of world id (empty policy, as the rib artifact builds it) and
// returns the median in milliseconds.
func bgpComputeMs(ctx context.Context, id string, pool parallel.Pool) (float64, error) {
	w, err := scenario.Build(id)
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < bgpProbeCalls; i++ {
		start := time.Now()
		if _, err := bgp.Compute(ctx, pool, w.Topo, nil); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start).Microseconds())/1000)
	}
	return median(times), nil
}

// layerMetrics assembles the catalogue's figures from the traced window tw
// (and the untraced window plain, for the tracing overhead). Figures of
// windows that ran their fixed work several times are per pass.
func layerMetrics(ctx context.Context, tr *tracer, plain, tw *window) (map[string]float64, error) {
	out := map[string]float64{}
	passes := float64(len(tw.stores))
	if passes == 0 {
		passes = 1
	}
	var spans []obs.Span
	for _, sp := range tr.rec.Spans() {
		if sp.StartMs >= tw.spanFrom {
			spans = append(spans, sp)
		}
	}
	for seam, ms := range stageSelfMs(spans) {
		out["stage."+seam+".ms"] = ms / passes
	}
	c := counterTotals(tr.rec.Metrics())
	for k, v := range tw.counterBase {
		c[k] -= v
	}
	perPass := func(name string) float64 { return c[name] / passes }
	out["bgp.destinations"] = perPass("bgp.destinations")
	out["bgp.sweeps"] = perPass("bgp.sweeps")
	out["bgp.incremental_destinations"] = perPass("bgp.incremental_destinations")
	out["placebo.fits"] = perPass("placebo.fits_attempted") - perPass("placebo.fits_skipped")
	out["power.trials"] = perPass("power.trials")
	out["scm.mc_draws"] = perPass("scm.mc_draws")
	out["parallel.batches"] = perPass("parallel.batches")
	out["parallel.tasks"] = perPass("parallel.tasks")
	if b := c["parallel.batches"]; b > 0 {
		out["parallel.tasks_per_batch"] = c["parallel.tasks"] / b
	}

	// The platform layer: no platform/campaign span is emitted on the code
	// paths these workloads run (campaigns are simulated inside the
	// campaign artifact's build), so campaign time is the artifact layer's
	// own build timing for that kind, and the measurement count is the
	// platform store's delivered counter.
	var campaignSpanMs float64
	for _, sp := range spans {
		if sp.Name == campaignSpan {
			campaignSpanMs += sp.DurMs
		}
	}
	buildMs := map[string]float64{}
	for name, v := range c {
		if key, ok := strings.CutPrefix(name, "cache.build_ms."); ok {
			kind, _, _ := strings.Cut(key, "/")
			buildMs[kind] += v
		}
	}
	for _, k := range buildKinds {
		out["cache.build."+k+".ms"] = buildMs[k] / passes
	}
	out["campaign.ms"] = (campaignSpanMs + buildMs["campaign"]) / passes
	out["campaign.measurements"] = perPass("store.delivered")
	if n := out["campaign.measurements"]; n > 0 {
		out["campaign.us_per_measurement"] = out["campaign.ms"] * 1000 / n
	}

	var hits, misses, builds, evictions, bytes float64
	for _, st := range tw.stores {
		hits += float64(st.Hits)
		misses += float64(st.Misses)
		builds += float64(st.Builds)
		evictions += float64(st.Evictions)
		bytes += float64(st.Bytes)
	}
	out["cache.hits"] = hits / passes
	out["cache.misses"] = misses / passes
	out["cache.builds"] = builds / passes
	out["cache.evictions"] = evictions / passes
	out["cache.resident_mb"] = bytes / passes / (1 << 20)
	if hits+misses > 0 {
		out["cache.hit_ratio"] = hits / (hits + misses)
	}

	out["gc.cycles"] = tw.gcCycles / passes
	out["gc.cpu_s"] = tw.gcCPU / passes
	out["alloc.mb"] = tw.allocBytes / passes / (1 << 20)
	// Both windows do the same fixed work.
	if plain.busy > 0 {
		out["trace.overhead"] = float64(tw.busy) / float64(plain.busy)
	}

	// Direct routing cost on every registered world the window touched:
	// the South Africa world reports as bgp.compute.ms, a generated one as
	// bgp.compute.gen.ms; other canned worlds are printed only.
	for _, id := range tw.worlds {
		ms, err := bgpComputeMs(ctx, id, parallel.NewPool(1))
		if err != nil {
			return nil, fmt.Errorf("bgp probe on %s: %w", id, err)
		}
		fmt.Printf("bgp.Compute on %s: median %.3f ms over %d calls\n", id, ms, bgpProbeCalls)
		switch {
		case id == scenario.SouthAfricaID:
			out["bgp.compute.ms"] = ms
		case strings.HasPrefix(id, scenario.GenIDPrefix):
			out["bgp.compute.gen.ms"] = ms
		}
	}

	for k, v := range tw.layers {
		out[k] = v
	}
	return out, nil
}
