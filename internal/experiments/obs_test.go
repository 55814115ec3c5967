package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// recordedSuite is one full seed-42 suite run with a live Recorder attached,
// shared by the bit-identity, trace-coverage and build-once tests so the
// suite is not re-run per assertion.
type recordedSuite struct {
	outs  []RunOutcome
	rec   *obs.Recorder
	store *artifact.Store
}

// obsSeqSuite mirrors the CLI's sequential `-all -seed 42 -trace/-metrics`
// path: experiments run one by one, in ID order, on the calling goroutine.
var obsSeqSuite = sync.OnceValues(func() (*recordedSuite, error) {
	rec := obs.NewRecorder()
	ctx := obs.With(context.Background(), rec)
	cfg := Config{Seed: 42, Pool: parallel.Pool{}}
	var outs []RunOutcome
	for _, e := range All() {
		res, err := e.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		outs = append(outs, RunOutcome{Exp: e, Res: res})
	}
	return &recordedSuite{outs: outs, rec: rec}, nil
})

// recordedSuiteForAssertions picks the shared recorded run the span- and
// metric-content tests read from. Under the race detector the sequential
// leg is skipped (see TestObservabilityOffBitIdentity), so the parallel
// run — whose recorded content is identical — serves instead.
func recordedSuiteForAssertions() (*recordedSuite, error) {
	if raceEnabled {
		return obsParSuite()
	}
	return obsSeqSuite()
}

// obsParSuite mirrors `-all -workers 4` with a live Recorder, keeping the
// suite's store for the build-once assertions.
var obsParSuite = sync.OnceValues(func() (*recordedSuite, error) {
	r := &recordedSuite{rec: obs.NewRecorder(), store: artifact.NewStore()}
	ctx := obs.With(context.Background(), r.rec)
	var err error
	r.outs, err = RunAll(ctx, Config{Seed: 42, Pool: parallel.NewPool(4), Artifacts: r.store})
	return r, err
})

// suiteJSON reconstructs the CLI's `-all -json` byte stream from outcomes.
func suiteJSON(t *testing.T, outs []RunOutcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, oc := range outs {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Exp.ID, oc.Err)
		}
		buf.WriteString(oc.Exp.Header())
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(oc.Res); err != nil {
			t.Fatalf("%s: %v", oc.Exp.ID, err)
		}
	}
	return buf.Bytes()
}

// TestObservabilityOffBitIdentity is the tentpole contract: attaching a live
// Recorder must not change one byte of experiment output — text or JSON,
// sequential or on four workers — relative to a run with no recorder at
// all. The no-recorder baseline is the shared goldenSuite, itself pinned to
// the pre-observability goldens, so this transitively pins every recorded
// run to the seed output.
func TestObservabilityOffBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite runs")
	}
	base, err := goldenSuite()
	if err != nil {
		t.Fatal(err)
	}
	baseText, baseJSON := suiteText(t, base), suiteJSON(t, base)

	for _, c := range []struct {
		name string
		get  func() (*recordedSuite, error)
	}{
		{"sequential", obsSeqSuite},
		{"parallel-4", obsParSuite},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "sequential" && raceEnabled {
				// One full suite run costs minutes under race
				// instrumentation, and the sequential leg adds no
				// concurrency for the detector to examine; the plain test
				// run covers it.
				t.Skip("sequential identity leg is covered without -race")
			}
			s, err := c.get()
			if err != nil {
				t.Fatal(err)
			}
			if got := suiteText(t, s.outs); !bytes.Equal(got, baseText) {
				t.Fatalf("text output with recorder differs from no-recorder run (%d vs %d bytes)", len(got), len(baseText))
			}
			if got := suiteJSON(t, s.outs); !bytes.Equal(got, baseJSON) {
				t.Fatalf("JSON output with recorder differs from no-recorder run (%d vs %d bytes)", len(got), len(baseJSON))
			}
		})
	}
}

// TestTraceCoversAllPipelineStages: a traced suite run must contain, for
// every registered experiment, a span for each of the four canonical seams —
// under the experiment's own scope. Experiments that delegate to another
// runner (chaos, did, tromboneera call the table1 pipeline) inherit that
// pipeline's stage names, so coverage is matched on the "/<seam>" suffix.
func TestTraceCoversAllPipelineStages(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	s, err := recordedSuiteForAssertions()
	if err != nil {
		t.Fatal(err)
	}
	seams := []string{"scenario", "dataset", "estimator", "report"}
	byScope := make(map[string]map[string]bool)
	for _, sp := range s.rec.Spans() {
		if byScope[sp.Scope] == nil {
			byScope[sp.Scope] = make(map[string]bool)
		}
		for _, seam := range seams {
			if strings.HasSuffix(sp.Name, "/"+seam) {
				byScope[sp.Scope][seam] = true
			}
		}
	}
	for _, e := range All() {
		got := byScope[e.ID]
		for _, seam := range seams {
			if !got[seam] {
				t.Errorf("experiment %s: no span for the %s seam (saw %v)", e.ID, seam, got)
			}
		}
	}
}

// TestTraceIsValidJSONL: every line WriteTrace emits for a real suite run
// must decode as a span object with a non-empty name.
func TestTraceIsValidJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	s, err := recordedSuiteForAssertions()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 4*len(All()) {
		t.Fatalf("only %d trace lines for %d experiments", len(lines), len(All()))
	}
	for i, line := range lines {
		var sp obs.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %d invalid: %v", i+1, err)
		}
		if sp.Name == "" {
			t.Fatalf("trace line %d has no span name: %s", i+1, line)
		}
	}
}

// TestSuiteMetricsNonEmptyAndRoundTrip: a recorded suite run must actually
// collect the computed-but-discarded quantities (placebo fits, BGP sweeps,
// MC shards, fault drops, coverage), and the -metrics -json payload must
// survive a JSON round trip.
func TestSuiteMetricsNonEmptyAndRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	s, err := recordedSuiteForAssertions()
	if err != nil {
		t.Fatal(err)
	}
	m := s.rec.Metrics()
	for _, want := range []struct{ scope, name string }{
		{"table1", "placebo.fits_attempted"},
		{"table1", "placebo.tests"},
		{"table1", "store.delivered"},
		{"table1", "store.coverage"},
		{"collider", "bgp.sweeps"},
		{"collider", "parallel.tasks"},
		{"power", "power.trials"},
		{"chaos", "faults.drops"},
	} {
		if _, ok := m[want.scope][want.name]; !ok {
			t.Errorf("suite metrics missing %s/%s", want.scope, want.name)
		}
	}
	blob, err := json.Marshal(map[string]obs.Metrics{"metrics": m})
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Metrics obs.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Metrics.Render() != m.Render() {
		t.Fatal("metrics JSON round trip changed the rendered table")
	}
}

// runTable1Timed is the overhead probe: one default-config table1 run
// (the heaviest experiment) under the given context.
func runTable1Timed(t testing.TB, ctx context.Context) time.Duration {
	start := time.Now()
	if _, err := RunTable1(ctx, parallel.Pool{}, Table1Config{Seed: 42, WithTruth: true}); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestRecorderOverheadGate bounds the observability layer's runtime cost on
// the full table1 pipeline. The uninstrumented build no longer exists to
// compare against, so the gate works from two measurable halves:
//
//   - obs.TestNilPathZeroAlloc pins the disabled path to zero allocations —
//     a context lookup per site is all that remains;
//   - here, the *enabled* path (live recorder, a strict superset of the
//     disabled path's work) must stay within 5% of the disabled path on
//     min-of-N wall time. If the disabled path ever grew real work, the
//     enabled path would exceed this bound a fortiori.
//
// Min-of-N with interleaved runs keeps the comparison stable on a loaded
// single-core CI box; a 75ms absolute floor absorbs scheduler jitter on a
// run this short.
func TestRecorderOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	if raceEnabled {
		t.Skip("wall-clock gate is noise under race-detector instrumentation")
	}
	off, on := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		if d := runTable1Timed(t, context.Background()); d < off {
			off = d
		}
		ctx := obs.With(context.Background(), obs.NewRecorder())
		if d := runTable1Timed(t, obs.Scoped(ctx, "table1")); d < on {
			on = d
		}
	}
	limit := off + off/20 + 75*time.Millisecond
	t.Logf("table1 min wall: recorder off %v, on %v (gate %v)", off, on, limit)
	if on > limit {
		t.Fatalf("tracing-enabled run %v exceeds 5%% gate over disabled run %v", on, off)
	}
}

// BenchmarkRecorderOverhead feeds the CHANGES.md before/after numbers: the
// full default table1 run with tracing off vs on.
func BenchmarkRecorderOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTable1Timed(b, context.Background())
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := obs.With(context.Background(), obs.NewRecorder())
			runTable1Timed(b, obs.Scoped(ctx, "table1"))
		}
	})
}

// TestForcedContrastRoutingWorkBound keeps forced contrasts on the what-if
// path. At 100 hours and seed 42 each experiment converges 66 to 162 BGP
// destinations, nearly all of them factual recomputes after egress shifts;
// the old recompute-everything path converged 7,584 (instrument) to 11,072
// (confounding), over 7× the bound.
const forcedContrastDestBound = 1000

// forcedContrastFactualComputes bounds the full tables each forced-contrast
// experiment converges for its factual routes, whatever its horizon: the
// egress controller flips between a few policies, and the engine's route
// memo hands a recurring ⟨topology epoch, policy⟩ state back without
// converging it again. Measured at seed 42: 2 to 3 per experiment at 100
// hours and at the default 1500/2000 hours alike (one fewer where the
// artifact store's RIB seeds the engine), against the 47 to 81 re-keys
// after egress shifts and releases at the defaults, each of which
// converged every destination before the memo.
const forcedContrastFactualComputes = 4

// forcedContrastWhatIfComputes bounds the what-if fixed points each forced-
// contrast experiment converges, whatever its horizon: it asks the same
// two questions (avoid primary, avoid alternate) every hour, and the
// engine's memo answers all but the first of each. familyknob's v6 speed
// tests ask a third — the route toward the content AS under the pinned v6
// policy — which the same memo answers. Measured at seed 42 and the
// default 1500/2000 hours: exactly these counts.
var forcedContrastWhatIfComputes = map[string]float64{"confounding": 2, "instrument": 2, "familyknob": 3}

func TestForcedContrastRoutingWorkBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments")
	}
	ids := []string{"confounding", "instrument", "familyknob"}
	run := func(opts Options) obs.Metrics {
		rec := obs.NewRecorder()
		ctx := obs.With(context.Background(), rec)
		for _, id := range ids {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(ctx, Config{Seed: 42, Opts: opts}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		return rec.Metrics()
	}
	short := run(WorldOptions{Hours: 100})
	for _, id := range ids {
		got := short[id]["bgp.destinations"]
		if got == 0 {
			t.Errorf("%s recorded no BGP destinations under its own scope: the bound below would pass vacuously", id)
		}
		if got > forcedContrastDestBound {
			t.Errorf("%s converged %.0f BGP destinations at 100h, bound %d: forced contrasts recompute the internet again", id, got, forcedContrastDestBound)
		}
	}
	// At the registered defaults (1500 or 2000 hours) the what-if work must
	// not grow with the horizon, and neither must the factual work.
	full := run(nil)
	for _, id := range ids {
		queries, computes := full[id]["whatif.queries"], full[id]["whatif.computes"]
		if queries < 1000 {
			t.Errorf("%s asked %.0f what-if questions at its default horizon, want thousands: the bound below would pass vacuously", id, queries)
		}
		if bound := forcedContrastWhatIfComputes[id]; computes > bound {
			t.Errorf("%s converged %.0f what-if fixed points for %.0f questions, bound %.0f: the what-if memo stopped hitting", id, computes, queries, bound)
		}
		queries, computes = full[id]["factual.queries"], full[id]["factual.computes"]
		if queries < 10 {
			t.Errorf("%s re-keyed its factual routes %.0f times at its default horizon, want tens: the bound below would pass vacuously", id, queries)
		}
		if computes > forcedContrastFactualComputes {
			t.Errorf("%s converged %.0f factual full tables for %.0f re-keys, bound %d: the route memo stopped hitting", id, computes, queries, forcedContrastFactualComputes)
		}
		if short := short[id]["factual.computes"]; computes > short {
			t.Errorf("%s converged %.0f factual full tables at its default horizon, %.0f at 100h: factual work grows with the horizon", id, computes, short)
		}
	}
}
