// Package obs is the run-trace observability layer: a run-scoped Recorder
// that collects per-stage span traces, counters, and gauges as a pipeline
// executes, without ever being able to perturb what the pipeline computes.
//
// The paper's §4 platform proposals hinge on knowing *why* a measurement ran;
// applied to our own runs, every experiment should emit a machine-readable
// account of what each stage did and what it cost. The Recorder is that
// account: pipeline stages record spans (wall time, item counts, error tags),
// estimator hot paths record the quantities they already compute but used to
// discard (placebo fits attempted/skipped, BGP sweeps to fixed point,
// Monte-Carlo shards, fault-injector drops, store coverage).
//
// # The zero-cost-when-off invariant
//
// Observability is a pure read-side layer. The contract, pinned by
// experiments.TestObservabilityOffBitIdentity and BenchmarkRecorderOverhead:
//
//   - A nil *Recorder is the universal no-op. Every method is nil-safe and
//     returns immediately; From on a context without a recorder returns nil.
//     With all observability flags off nothing is allocated and instrumented
//     code pays only a context lookup per instrumentation site.
//   - A live Recorder only ever *reads* from the run: it never draws from an
//     RNG stream, never schedules work, and never writes to experiment
//     output. Experiment bytes are identical with and without a recorder.
//
// Instrumented packages therefore call obs unconditionally; the nil receiver
// is the off switch.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one completed traced operation — a pipeline stage, a campaign run,
// a fan-out batch. Serialized as one JSONL object per line by WriteTrace.
type Span struct {
	// Name identifies the operation, e.g. "table1/estimator". Pipeline
	// stages use "<prefix>/<seam>" with the canonical seam last.
	Name string `json:"span"`
	// Scope is the experiment (or other run unit) the span belongs to;
	// empty when recorded outside any scope.
	Scope string `json:"scope,omitempty"`
	// StartMs is the span's start in milliseconds since the Recorder was
	// created (monotonic clock).
	StartMs float64 `json:"start_ms"`
	// DurMs is the span's wall-clock duration in milliseconds.
	DurMs float64 `json:"dur_ms"`
	// Err tags a failed span with its error text; empty on success.
	Err string `json:"err,omitempty"`
}

// Recorder accumulates spans, counters, and gauges for one run. It is safe
// for concurrent use (parallel fan-outs record from many goroutines). The
// nil *Recorder is the no-op implementation; see the package comment.
type Recorder struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []Span
	dropped  int64
	maxSpans int
	counters map[metricKey]int64
	gauges   map[metricKey]float64
}

// metricKey scopes a counter or gauge name by the experiment that recorded
// it, so one suite run keeps per-experiment metrics separate.
type metricKey struct{ scope, name string }

// NewRecorder returns a live recorder whose span clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: make(map[metricKey]int64),
		gauges:   make(map[metricKey]float64),
	}
}

type ctxKey struct{}
type scopeKey struct{}

// With returns a context carrying the recorder. A nil recorder is allowed
// and equivalent to not attaching one.
func With(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From returns the context's recorder, or nil — the no-op — when none is
// attached. This is the single branch every instrumentation site pays when
// observability is off.
func From(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// Scoped returns a context whose recorded metrics and spans are labelled
// with the given scope (the experiment ID, for suite runs). When no recorder
// is attached the context is returned unchanged, so scoping is free when
// observability is off.
func Scoped(ctx context.Context, scope string) context.Context {
	if From(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, scope)
}

// ScopeOf returns the context's scope label ("" outside any scope).
func ScopeOf(ctx context.Context) string {
	s, _ := ctx.Value(scopeKey{}).(string)
	return s
}

// ActiveSpan is an in-flight span. The nil *ActiveSpan (what StartSpan
// returns when no recorder is attached) is a valid no-op.
type ActiveSpan struct {
	rec   *Recorder
	name  string
	scope string
	start time.Time
}

// StartSpan begins a span. End must be called to record it; on the nil
// recorder path the returned span is nil and End is a no-op.
func StartSpan(ctx context.Context, name string) *ActiveSpan {
	r := From(ctx)
	if r == nil {
		return nil
	}
	return &ActiveSpan{rec: r, name: name, scope: ScopeOf(ctx), start: time.Now()}
}

// End completes the span, tagging it with err's text when non-nil.
func (s *ActiveSpan) End(err error) {
	if s == nil {
		return
	}
	sp := Span{
		Name:    s.name,
		Scope:   s.scope,
		StartMs: float64(s.start.Sub(s.rec.epoch)) / float64(time.Millisecond),
		DurMs:   float64(time.Since(s.start)) / float64(time.Millisecond),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, sp)
	// Amortized ring behaviour for bounded recorders: grow to twice the
	// bound, then compact to the most recent max in one copy, so appends
	// stay O(1) amortized and memory stays O(max).
	if s.rec.maxSpans > 0 && len(s.rec.spans) > 2*s.rec.maxSpans {
		kept := s.rec.spans[len(s.rec.spans)-s.rec.maxSpans:]
		s.rec.dropped += int64(len(s.rec.spans) - s.rec.maxSpans)
		s.rec.spans = append(s.rec.spans[:0], kept...)
	}
	s.rec.mu.Unlock()
}

// LimitSpans bounds the recorder's span log: once more than roughly twice n
// spans have accumulated, only the most recent n survive (older spans are
// counted as dropped, reported by DroppedSpans). Unbounded recorders — the
// default, what a single CLI run wants — keep everything. Long-running
// servers set a bound so the trace buffer cannot grow without limit.
// Passing n <= 0 removes the bound.
func (r *Recorder) LimitSpans(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.maxSpans = n
	if n > 0 && len(r.spans) > n {
		kept := r.spans[len(r.spans)-n:]
		r.dropped += int64(len(r.spans) - n)
		r.spans = append(r.spans[:0], kept...)
	}
	r.mu.Unlock()
}

// DroppedSpans reports how many spans a bounded recorder has discarded.
func (r *Recorder) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Add increments the named counter in the context's scope. No-op without a
// recorder.
func Add(ctx context.Context, name string, delta int64) {
	r := From(ctx)
	if r == nil {
		return
	}
	k := metricKey{scope: ScopeOf(ctx), name: name}
	r.mu.Lock()
	r.counters[k] += delta
	r.mu.Unlock()
}

// Gauge sets the named gauge in the context's scope to v (last write wins).
// No-op without a recorder.
func Gauge(ctx context.Context, name string, v float64) {
	r := From(ctx)
	if r == nil {
		return
	}
	k := metricKey{scope: ScopeOf(ctx), name: name}
	r.mu.Lock()
	r.gauges[k] = v
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteTrace serializes the recorded spans as JSONL, one span per line, in
// recording order — the format behind the CLI's -trace flag.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sp := range r.Spans() {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("obs: encoding span %q: %w", sp.Name, err)
		}
	}
	return nil
}

// Metrics is the counter/gauge snapshot: scope → metric name → value.
// Counters come back as exact integers stored in float64 (they count events,
// far below 2⁵³). The map is what the CLI appends under the "metrics" key in
// -json mode.
type Metrics map[string]map[string]float64

// Metrics snapshots all counters and gauges. A nil recorder returns nil.
func (r *Recorder) Metrics() Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Metrics)
	put := func(k metricKey, v float64) {
		m := out[k.scope]
		if m == nil {
			m = make(map[string]float64)
			out[k.scope] = m
		}
		m[k.name] = v
	}
	for k, v := range r.counters {
		put(k, float64(v))
	}
	for k, v := range r.gauges {
		put(k, v)
	}
	return out
}

// Render prints the metrics as an aligned per-scope text table with scopes
// and names sorted, matching the CLI's -metrics section.
func (m Metrics) Render() string {
	if len(m) == 0 {
		return "(no metrics recorded)\n"
	}
	scopes := make([]string, 0, len(m))
	for s := range m {
		scopes = append(scopes, s)
	}
	sort.Strings(scopes)
	var sb strings.Builder
	for _, s := range scopes {
		label := s
		if label == "" {
			label = "(unscoped)"
		}
		fmt.Fprintf(&sb, "%s:\n", label)
		names := make([]string, 0, len(m[s]))
		for n := range m[s] {
			names = append(names, n)
		}
		sort.Strings(names)
		width := 0
		for _, n := range names {
			if len(n) > width {
				width = len(n)
			}
		}
		for _, n := range names {
			v := m[s][n]
			if v == float64(int64(v)) {
				fmt.Fprintf(&sb, "  %-*s  %d\n", width, n, int64(v))
			} else {
				fmt.Fprintf(&sb, "  %-*s  %g\n", width, n, v)
			}
		}
	}
	return sb.String()
}
