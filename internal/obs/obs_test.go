package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsNoOp: every entry point must be callable with no recorder
// attached — the nil path IS the off switch, so none of this may panic or
// observe anything.
func TestNilRecorderIsNoOp(t *testing.T) {
	ctx := context.Background()
	if r := From(ctx); r != nil {
		t.Fatalf("From(bare ctx) = %v, want nil", r)
	}
	sp := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatalf("StartSpan without recorder = %v, want nil", sp)
	}
	sp.End(errors.New("boom"))
	Add(ctx, "c", 1)
	Gauge(ctx, "g", 2)

	var r *Recorder
	if got := r.Spans(); got != nil {
		t.Fatalf("nil.Spans() = %v", got)
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil.WriteTrace: %v", err)
	}
	if m := r.Metrics(); m != nil {
		t.Fatalf("nil.Metrics() = %v", m)
	}
	if With(ctx, nil) != ctx {
		t.Fatal("With(ctx, nil) must return ctx unchanged")
	}
	if Scoped(ctx, "e") != ctx {
		t.Fatal("Scoped without a recorder must return ctx unchanged")
	}
}

// TestNilPathZeroAlloc is the deterministic half of the zero-cost-when-off
// invariant: with no recorder attached, a full instrumentation site — span
// start/items/end plus a counter and a gauge — allocates nothing.
func TestNilPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp := StartSpan(ctx, "stage")
		sp.End(nil)
		Add(ctx, "counter", 1)
		Gauge(ctx, "gauge", 3.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSpanRecording covers the live path: scoping, error tags,
// and the monotone span clock.
func TestSpanRecording(t *testing.T) {
	rec := NewRecorder()
	ctx := Scoped(With(context.Background(), rec), "exp1")
	if got := ScopeOf(ctx); got != "exp1" {
		t.Fatalf("ScopeOf = %q", got)
	}

	sp := StartSpan(ctx, "exp1/estimator")
	sp.End(nil)
	sp2 := StartSpan(ctx, "exp1/report")
	sp2.End(errors.New("boom"))

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	s0, s1 := spans[0], spans[1]
	if s0.Name != "exp1/estimator" || s0.Scope != "exp1" || s0.Err != "" {
		t.Fatalf("span 0 = %+v", s0)
	}
	if s1.Name != "exp1/report" || s1.Err != "boom" {
		t.Fatalf("span 1 = %+v", s1)
	}
	if s0.StartMs < 0 || s0.DurMs < 0 || s1.StartMs < s0.StartMs {
		t.Fatalf("span clock not monotone: %+v then %+v", s0, s1)
	}
}

// TestWriteTraceJSONL: the trace is strict JSONL — one valid object per
// line, fields matching the documented schema, in recording order.
func TestWriteTraceJSONL(t *testing.T) {
	rec := NewRecorder()
	ctx := Scoped(With(context.Background(), rec), "e")
	for _, name := range []string{"e/scenario", "e/dataset"} {
		sp := StartSpan(ctx, name)
		sp.End(nil)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		for _, key := range []string{"span", "scope", "start_ms", "dur_ms"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing %q: %s", i, key, line)
			}
		}
		if _, ok := m["err"]; ok {
			t.Fatalf("successful span carries err field: %s", line)
		}
	}
	var first Span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "e/scenario" || first.Scope != "e" {
		t.Fatalf("round-tripped span = %+v", first)
	}
}

// TestMetricsSnapshotAndRender: counters accumulate, gauges last-write-win,
// scopes stay separate, and Render is deterministic and sorted.
func TestMetricsSnapshotAndRender(t *testing.T) {
	rec := NewRecorder()
	base := With(context.Background(), rec)
	a := Scoped(base, "a")
	b := Scoped(base, "b")
	Add(a, "fits", 2)
	Add(a, "fits", 3)
	Gauge(a, "coverage", 0.25)
	Gauge(a, "coverage", 0.75) // last write wins
	Add(b, "fits", 1)

	want := Metrics{
		"a": {"fits": 5, "coverage": 0.75},
		"b": {"fits": 1},
	}
	if got := rec.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Metrics() = %v, want %v", got, want)
	}

	r1, r2 := rec.Metrics().Render(), rec.Metrics().Render()
	if r1 != r2 {
		t.Fatal("Render is not deterministic")
	}
	wantText := "a:\n  coverage  0.75\n  fits      5\n" + "b:\n  fits  1\n"
	if r1 != wantText {
		t.Fatalf("Render =\n%q\nwant\n%q", r1, wantText)
	}
	if got := (Metrics{}).Render(); got != "(no metrics recorded)\n" {
		t.Fatalf("empty Render = %q", got)
	}
	// JSON round trip — what -metrics -json emits must decode back equal.
	blob, err := json.Marshal(rec.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec.Metrics()) {
		t.Fatalf("metrics JSON round trip drifted: %v", back)
	}
}

// TestUnscopedMetricsRenderLabel: metrics recorded outside any scope render
// under the explicit "(unscoped)" heading rather than an empty one.
func TestUnscopedMetricsRenderLabel(t *testing.T) {
	rec := NewRecorder()
	Add(With(context.Background(), rec), "loose", 1)
	if got := rec.Metrics().Render(); !strings.HasPrefix(got, "(unscoped):\n") {
		t.Fatalf("Render = %q", got)
	}
}

// TestConcurrentRecording: many goroutines hammering one recorder (the
// parallel fan-out shape) must neither race (-race run) nor lose events.
func TestConcurrentRecording(t *testing.T) {
	rec := NewRecorder()
	ctx := With(context.Background(), rec)
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := StartSpan(ctx, "w")
				Add(ctx, "n", 1)
				sp.End(nil)
			}
		}()
	}
	wg.Wait()
	if got := len(rec.Spans()); got != workers*each {
		t.Fatalf("lost spans: %d, want %d", got, workers*each)
	}
	if got := rec.Metrics()[""]["n"]; got != workers*each {
		t.Fatalf("counter = %v, want %d", got, workers*each)
	}
}

// TestLimitSpansRing pins the amortized ring a long-running server relies
// on: a bounded recorder grows to at most twice the bound, compacts to the
// most recent max, and counts every discarded span.
func TestLimitSpansRing(t *testing.T) {
	rec := NewRecorder()
	rec.LimitSpans(10)
	ctx := Scoped(With(context.Background(), rec), "srv")
	emit := func(n int, prefix string) {
		for i := 0; i < n; i++ {
			sp := StartSpan(ctx, fmt.Sprintf("%s%d", prefix, i))
			sp.End(nil)
		}
	}
	emit(20, "a") // 20 = 2*max: compaction triggers on the append *past* 2*max
	if got := len(rec.Spans()); got != 20 {
		t.Fatalf("at exactly 2*max: %d spans, want 20 (compaction is amortized, not eager)", got)
	}
	if rec.DroppedSpans() != 0 {
		t.Fatalf("dropped %d before crossing the bound", rec.DroppedSpans())
	}
	emit(1, "b")
	spans := rec.Spans()
	if len(spans) != 10 {
		t.Fatalf("after compaction: %d spans, want 10", len(spans))
	}
	if rec.DroppedSpans() != 11 {
		t.Fatalf("DroppedSpans = %d, want 11 (21 recorded - 10 kept)", rec.DroppedSpans())
	}
	// The survivors are the most recent 10, in order, ending with the
	// span that triggered compaction.
	if spans[0].Name != "a11" || spans[9].Name != "b0" {
		t.Fatalf("wrong survivors: first %q last %q, want a11..b0", spans[0].Name, spans[9].Name)
	}
	// Memory stays O(max) across sustained load.
	emit(100, "c")
	if got := len(rec.Spans()); got > 20 {
		t.Fatalf("sustained load grew the buffer to %d spans (bound 10)", got)
	}
}

// TestLimitSpansImmediateTrim: lowering the bound below the current length
// trims right away, and n <= 0 removes the bound entirely.
func TestLimitSpansImmediateTrim(t *testing.T) {
	rec := NewRecorder()
	ctx := Scoped(With(context.Background(), rec), "srv")
	for i := 0; i < 8; i++ {
		sp := StartSpan(ctx, fmt.Sprintf("s%d", i))
		sp.End(nil)
	}
	rec.LimitSpans(3)
	spans := rec.Spans()
	if len(spans) != 3 || spans[0].Name != "s5" || spans[2].Name != "s7" {
		t.Fatalf("immediate trim kept %d spans (first %q), want the most recent 3", len(spans), spans[0].Name)
	}
	if rec.DroppedSpans() != 5 {
		t.Fatalf("DroppedSpans = %d, want 5", rec.DroppedSpans())
	}
	rec.LimitSpans(0) // unbound again
	for i := 0; i < 50; i++ {
		sp := StartSpan(ctx, "free")
		sp.End(nil)
	}
	if got := len(rec.Spans()); got != 53 {
		t.Fatalf("unbounded recorder kept %d spans, want 53", got)
	}
	if rec.DroppedSpans() != 5 {
		t.Fatalf("unbinding changed the drop count: %d", rec.DroppedSpans())
	}
	// Nil recorder: both entry points are no-ops.
	var nilRec *Recorder
	nilRec.LimitSpans(4)
	if nilRec.DroppedSpans() != 0 {
		t.Fatal("nil recorder reported drops")
	}
}
