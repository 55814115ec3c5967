package artifact

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sisyphus/internal/obs"
)

// TestPerKeyDistinguishesHashPrefixCollisions is the regression test for the
// stats-folding bug: per-key counters and metric labels were keyed by
// Key.String(), which truncates the config hash to 12 characters, so two
// distinct configs sharing a hash prefix folded onto one slot — hits counted
// against the wrong artifact and the exactly-once-build assertion could pass
// vacuously. Stats must key by the full Key value and metric labels by the
// full hash; only rendering truncates.
func TestPerKeyDistinguishesHashPrefixCollisions(t *testing.T) {
	ctx := context.Background()
	rec := obs.NewRecorder()
	ctx = obs.With(ctx, rec)
	s := NewStore()

	// sha256 prefix collisions are infeasible to mine, so construct the
	// keys directly: same 12-char prefix, divergence only afterwards.
	const prefix = "aaaaaaaaaaaa" // 12 chars — String() truncates here
	k1 := Key{Kind: "world", Scenario: "s", Seed: 7, ConfigHash: prefix + "0000"}
	k2 := Key{Kind: "world", Scenario: "s", Seed: 7, ConfigHash: prefix + "ffff"}
	if k1.String() != k2.String() {
		t.Fatalf("precondition: keys must collide under String(): %q vs %q", k1, k2)
	}
	if k1.ID() == k2.ID() {
		t.Fatal("ID() lost the distinguishing hash suffix")
	}

	spec := boxSpec(nil, []int{1})
	for _, k := range []Key{k1, k2, k1, k1} { // k1: 1 miss + 2 hits; k2: 1 miss
		if _, err := GetOrBuild(ctx, s, k, spec); err != nil {
			t.Fatal(err)
		}
	}

	pk := s.PerKey()
	if len(pk) != 2 {
		t.Fatalf("PerKey folded prefix-colliding keys: %d slots, want 2 (%v)", len(pk), pk)
	}
	if got := pk[k1]; got.Builds != 1 || got.Misses != 1 || got.Hits != 2 {
		t.Fatalf("k1 stats = %+v, want 1 build / 1 miss / 2 hits", got)
	}
	if got := pk[k2]; got.Builds != 1 || got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("k2 stats = %+v, want 1 build / 1 miss / 0 hits", got)
	}

	// Metric labels must be distinct too: one miss counter per full key.
	counters := allMetrics(rec)
	if got := counters["cache.miss."+k1.ID()]; got != 1 {
		t.Fatalf("cache.miss.%s = %v, want 1", k1.ID(), got)
	}
	if got := counters["cache.miss."+k2.ID()]; got != 1 {
		t.Fatalf("cache.miss.%s = %v, want 1", k2.ID(), got)
	}
	if got := counters["cache.hit."+k1.ID()]; got != 2 {
		t.Fatalf("cache.hit.%s = %v, want 2", k1.ID(), got)
	}
}

// TestBuildMsLabeling is the regression test for the failed-build timing
// bug: GetOrBuild recorded cache.build_ms.<key> even when Build returned an
// error, polluting the successful-build timing series with aborted-attempt
// durations. Failures must surface as cache.build_errors instead.
func TestBuildMsLabeling(t *testing.T) {
	key, _ := NewKey("world", "s", 0, nil)
	boom := errors.New("boom")
	cases := []struct {
		name       string
		fail       bool
		wantMs     bool // a cache.build_ms.<key> series exists
		wantErrors float64
	}{
		{name: "failed build", fail: true, wantMs: false, wantErrors: 1},
		{name: "successful build", fail: false, wantMs: true, wantErrors: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			ctx := obs.With(context.Background(), rec)
			s := NewStore()
			spec := boxSpec(nil, []int{1})
			if tc.fail {
				spec.Build = func(ctx context.Context) (*[]int, error) { return nil, boom }
			}
			_, err := GetOrBuild(ctx, s, key, spec)
			if tc.fail != (err != nil) {
				t.Fatalf("err = %v, want failure=%v", err, tc.fail)
			}
			counters := allMetrics(rec)
			_, gotMs := counters["cache.build_ms."+key.ID()]
			if gotMs != tc.wantMs {
				t.Fatalf("cache.build_ms present = %v, want %v (counters: %v)", gotMs, tc.wantMs, counters)
			}
			if got := counters["cache.build_errors."+key.ID()]; got != tc.wantErrors {
				t.Fatalf("cache.build_errors = %v, want %v", got, tc.wantErrors)
			}
		})
	}
}

// TestMetricLabelsUseFullHash guards the label-side of the truncation bug
// directly: no cache.* label may carry a truncated hash when the key's
// config hash is longer.
func TestMetricLabelsUseFullHash(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.With(context.Background(), rec)
	s := NewStore()
	key, _ := NewKey("world", "s", 3, map[string]int{"x": 1})
	if len(key.ConfigHash) != 64 {
		t.Fatalf("precondition: full sha256 hash, got %d chars", len(key.ConfigHash))
	}
	if _, err := GetOrBuild(ctx, s, key, boxSpec(nil, []int{1})); err != nil {
		t.Fatal(err)
	}
	for name := range allMetrics(rec) {
		if strings.HasPrefix(name, "cache.") && strings.Contains(name, key.ConfigHash[:12]) &&
			!strings.Contains(name, key.ConfigHash) {
			t.Fatalf("metric %q carries a truncated config hash", name)
		}
	}
}

// allMetrics flattens the recorder's scoped metrics into one name→value map
// (scopes are irrelevant to these assertions).
func allMetrics(rec *obs.Recorder) map[string]float64 {
	out := make(map[string]float64)
	for _, byName := range rec.Metrics() {
		for name, v := range byName {
			out[name] += v
		}
	}
	return out
}

// TestCancelledBuilderDoesNotPoisonWaiters is the regression test for the
// waiter-poisoning bug: when the in-flight builder's own context is
// cancelled, every waiter parked on the entry used to receive that
// context.Canceled verbatim and fail — even though the failure says nothing
// about the key and the waiters' contexts were perfectly alive. A waiter
// whose own context permits must re-enter the miss path (becoming the new
// builder) and succeed.
func TestCancelledBuilderDoesNotPoisonWaiters(t *testing.T) {
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	firstStarted := make(chan struct{})
	var builds atomic.Int64
	spec := Spec[*[]int]{
		Build: func(ctx context.Context) (*[]int, error) {
			if builds.Add(1) == 1 {
				close(firstStarted)
				<-ctx.Done() // the doomed builder: block until cancelled
				return nil, ctx.Err()
			}
			v := []int{42}
			return &v, nil
		},
		Fork: func(p *[]int) *[]int { v := append([]int(nil), *p...); return &v },
		Size: func(p *[]int) int64 { return int64(8 * len(*p)) },
	}

	builderCtx, cancel := context.WithCancel(context.Background())
	builderErr := make(chan error, 1)
	go func() {
		_, err := GetOrBuild(builderCtx, s, key, spec)
		builderErr <- err
	}()
	<-firstStarted // the entry is in-flight; join it as a waiter
	waiterDone := make(chan error, 1)
	var got atomic.Int64
	go func() {
		v, err := GetOrBuild(context.Background(), s, key, spec)
		if err == nil {
			got.Store(int64((*v)[0]))
		}
		waiterDone <- err
	}()
	// Give the waiter time to park on the pending entry, then kill the
	// builder under it.
	time.Sleep(20 * time.Millisecond)
	cancel()

	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder err = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter poisoned by the builder's cancellation: %v", err)
	}
	if got.Load() != 42 {
		t.Fatalf("waiter value = %d, want 42", got.Load())
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (cancelled attempt + waiter's retry)", builds.Load())
	}
}

// TestCancelledWaiterStillFails: the retry loop must not spin when the
// waiter's own context is also dead — it surfaces an error instead.
func TestCancelledWaiterStillFails(t *testing.T) {
	s := NewStore()
	key, _ := NewKey("world", "s", 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := boxSpec(nil, []int{1})
	spec.Build = func(ctx context.Context) (*[]int, error) { return nil, ctx.Err() }
	if _, err := GetOrBuild(ctx, s, key, spec); err == nil {
		t.Fatal("dead-context caller must fail, not loop or succeed")
	}
}
