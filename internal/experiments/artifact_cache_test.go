package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/probe"
)

// cachedRun is one full cached suite run plus its instrumentation.
type cachedRun struct {
	outs  []RunOutcome
	store *artifact.Store
	rec   *obs.Recorder
}

// cachedSuite runs the full seed-42 suite exactly once with a live artifact
// store and a metrics recorder, shared by the cache-equivalence and
// exactly-once assertions below.
var cachedSuite = sync.OnceValues(func() (cachedRun, error) {
	r := cachedRun{store: artifact.NewStore(), rec: obs.NewRecorder()}
	ctx := obs.With(context.Background(), r.rec)
	var err error
	r.outs, err = RunAll(ctx, Config{Seed: 42, Pool: parallel.Pool{}, Artifacts: r.store})
	return r, err
})

// TestSuiteCachedTextMatchesGolden is the tentpole's headline acceptance
// criterion, the cache-on twin of TestSuiteTextMatchesGolden: with every
// world, RIB, and campaign flowing through the artifact store, the rendered
// suite must stay byte-identical to the same pinned seed-42 golden the
// uncached run is held to.
func TestSuiteCachedTextMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	want, err := os.ReadFile("testdata/all_seed42.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, err := cachedSuite()
	if err != nil {
		t.Fatal(err)
	}
	got := suiteText(t, r.outs)
	if !bytes.Equal(got, want) {
		t.Fatalf("cached suite text drifted from golden (%d bytes vs %d): the artifact layer changed experiment output", len(got), len(want))
	}
}

// TestSuiteCachedJSONMatchesGolden is the same pin for the JSON surface:
// full float precision, so a 1-ULP drift anywhere in a cached artifact
// shows up here even if the rounded text tables hide it.
func TestSuiteCachedJSONMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	want, err := os.ReadFile("testdata/all_seed42.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := cachedSuite()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, oc := range r.outs {
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
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("cached suite JSON drifted from golden (%d bytes vs %d)", buf.Len(), len(want))
	}
}

// TestSuiteCachedParallelMatchesGolden re-runs the cached suite across a
// 4-worker pool: concurrent experiments racing into the same store must
// still render the pinned bytes (singleflight + fork discipline at work).
func TestSuiteCachedParallelMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	want, err := os.ReadFile("testdata/all_seed42.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunAll(context.Background(), Config{
		Seed: 42, Pool: parallel.NewPool(4), Artifacts: artifact.NewStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := suiteText(t, outs)
	if !bytes.Equal(got, want) {
		t.Fatalf("cached parallel suite drifted from golden (%d bytes vs %d)", len(got), len(want))
	}
}

// TestCachedSuiteBuildsEachKeyOnce pins the build-once property: across the
// whole cached suite every ⟨kind, scenario, seed, config⟩ coordinate is
// built exactly once, asserted both on the store's per-key counters and on
// the obs cache.miss.* counters summed across experiment scopes.
func TestCachedSuiteBuildsEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	r, err := cachedSuite()
	if err != nil {
		t.Fatal(err)
	}
	perKey := r.store.PerKey()
	if len(perKey) == 0 {
		t.Fatal("cached suite recorded no artifact keys")
	}
	var hits int64
	for key, ks := range perKey {
		if ks.Builds != 1 {
			t.Errorf("%s built %d times, want exactly 1", key, ks.Builds)
		}
		if ks.Misses != 1 {
			t.Errorf("%s missed %d times, want exactly 1", key, ks.Misses)
		}
		hits += ks.Hits
	}
	if hits == 0 {
		t.Error("no cache hits across the suite: nothing was shared")
	}
	// The same property through the observability layer: each cache.miss.<key>
	// counter, summed over experiment scopes, is exactly 1.
	missTotals := make(map[string]float64)
	for _, metrics := range r.rec.Metrics() {
		for name, v := range metrics {
			if strings.HasPrefix(name, "cache.miss.") {
				missTotals[strings.TrimPrefix(name, "cache.miss.")] += v
			}
		}
	}
	if len(missTotals) != len(perKey) {
		t.Errorf("obs saw %d distinct keys, store saw %d", len(missTotals), len(perKey))
	}
	for key, n := range missTotals {
		if n != 1 {
			t.Errorf("obs counted %v misses for %s, want exactly 1", n, key)
		}
	}
}

// TestFetchWorldMutationSafety is the domain-level fork battery: mutate
// everything reachable from one fetched world, then refetch and verify the
// stored artifacts were untouched.
func TestFetchWorldMutationSafety(t *testing.T) {
	store := artifact.NewStore()
	ctx := artifact.With(context.Background(), store)
	pool := parallel.Pool{}

	s1, rib1, err := fetchWorld(ctx, pool, scenario.SouthAfricaID)
	if err != nil {
		t.Fatal(err)
	}
	if rib1 == nil {
		t.Fatal("cached fetchWorld must return a RIB")
	}
	origTreated := s1.TreatedASNs[0]
	origDonors := len(s1.Donors)

	// Mutate the scenario metadata slices.
	s1.TreatedASNs[0] = 65000
	s1.Treated[0].City = "Nowhere"
	s1.ContentASNs[0] = 65001
	s1.Donors = append(s1.Donors, scenario.Unit{ASN: 65002, City: "Nowhere"})
	// Mutate the topology itself: graft a new IXP member.
	if _, err := s1.Topo.JoinIXP(s1.IXPName, origTreated); err != nil {
		t.Fatal(err)
	}

	s2, rib2, err := fetchWorld(ctx, pool, scenario.SouthAfricaID)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == s1 || s2.Topo == s1.Topo || rib2 == rib1 {
		t.Fatal("refetch returned shared pointers, not forks")
	}
	if s2.TreatedASNs[0] != origTreated || s2.Treated[0].City == "Nowhere" {
		t.Fatalf("treated-unit mutation leaked into the store: %v", s2.TreatedASNs)
	}
	if s2.ContentASNs[0] == 65001 || len(s2.Donors) != origDonors {
		t.Fatal("content/donor mutation leaked into the store")
	}
	if x, err := s2.Topo.IXP(s2.IXPName); err != nil || slices.Contains(x.Members, origTreated) {
		t.Fatal("topology mutation (IXP join) leaked into the store")
	}
	if rib2.Lookup(3741, scenario.BigContent) == nil {
		t.Fatal("refetched RIB lost the 3741 → BigContent route")
	}
	// The store was consulted: one build per key, later fetches were hits.
	for key, ks := range store.PerKey() {
		if ks.Builds != 1 {
			t.Errorf("%s built %d times during the battery, want 1", key, ks.Builds)
		}
	}
}

// TestFetchCampaignMutationSafety runs a short campaign through the cache,
// mauls the returned measurement store and world, and verifies a refetch
// sees none of it.
func TestFetchCampaignMutationSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a one-week campaign")
	}
	store := artifact.NewStore()
	ctx := artifact.With(context.Background(), store)
	pool := parallel.Pool{}
	p := campaignParams{Weeks: 1, JoinWeek: 0, UserRate: 0.25, Join: false}

	s1, ms1, err := fetchCampaign(ctx, pool, scenario.SouthAfricaID, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	if ms1.Len() == 0 {
		t.Fatal("campaign produced no measurements")
	}
	origLen := ms1.Len()
	m := ms1.All()[0]
	origRTT := m.RTTms
	origHops := len(m.Hops)

	// Maul the fetched copies through the supported mutators. Measurement
	// interiors are immutable after ingestion (the copy-on-write fork
	// shares them with the store), so the store-side mutation is an Add —
	// which must reallocate, never scribble into the shared backing array.
	if err := ms1.Add(&probe.Measurement{ID: 1 << 30, Intent: probe.IntentBaseline, Hour: 1}); err != nil {
		t.Fatal(err)
	}
	s1.TreatedASNs[0] = 65000
	s1.Topo.SetLinkUp(0, false)

	s2, ms2, err := fetchCampaign(ctx, pool, scenario.SouthAfricaID, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	if ms2 == ms1 || s2 == s1 {
		t.Fatal("refetch returned shared pointers, not forks")
	}
	if ms2.Len() != origLen {
		t.Fatalf("store length drifted: %d vs %d", ms2.Len(), origLen)
	}
	m2 := ms2.All()[0]
	if m2.RTTms != origRTT || len(m2.Hops) != origHops {
		t.Fatalf("measurement mutation leaked into the store: rtt=%v hops=%d", m2.RTTms, len(m2.Hops))
	}
	if got := ms2.All()[ms2.Len()-1].ID; got == 1<<30 {
		t.Fatal("fork's Add leaked into the store")
	}
	if s2.TreatedASNs[0] == 65000 {
		t.Fatal("world mutation leaked into the store")
	}
	if !s2.Topo.Link(0).Up {
		t.Fatal("fork's link-down leaked into the store")
	}
	// Exactly one campaign simulation happened.
	for key, ks := range store.PerKey() {
		if key.Kind == kindCampaign && ks.Builds != 1 {
			t.Errorf("%s built %d times, want 1", key, ks.Builds)
		}
	}
}

// TestFlapScheduleClosedForm is the regression test for the flap-drift bug:
// the schedule accumulated h += period per flap, compounding one rounding
// error per step when the period is not exactly representable. The schedule
// must equal the closed form 100 + i*period at every index.
func TestFlapScheduleClosedForm(t *testing.T) {
	const period = 0.1 // not representable in binary: accumulation drifts
	const total = 250.0
	hs := flapHours(total, period)
	if len(hs) == 0 {
		t.Fatal("empty flap schedule")
	}
	acc, drifted := 100.0, false
	for i, h := range hs {
		if want := 100 + float64(i)*period; h != want {
			t.Fatalf("flap %d at hour %v, want closed-form %v", i, h, want)
		}
		if h >= total {
			t.Fatalf("flap %d at hour %v past the horizon %v", i, h, total)
		}
		if acc != h {
			drifted = true
		}
		acc += period
	}
	// The accumulated schedule genuinely diverges over this horizon — the
	// bug was observable, not theoretical.
	if !drifted {
		t.Fatal("accumulated schedule never drifted; pick a period that exposes the bug")
	}
	// And the representable production value (72h) is unaffected either
	// way, which is why the pinned goldens cannot move.
	for i, h := range flapHours(24*7*4, 72) {
		if want := 100 + float64(i)*72; h != want {
			t.Fatalf("72h flap %d at %v, want %v", i, h, want)
		}
	}
	if flapHours(total, 0) != nil || flapHours(total, -1) != nil {
		t.Fatal("non-positive period must schedule nothing")
	}
}

// TestCachedSuiteResidencyCountsAllKinds pins the LRU undercount fix: every
// artifact kind now reports a nonzero size, so the store's byte accounting
// reflects worlds and RIBs, not just campaign measurement stores.
func TestCachedSuiteResidencyCountsAllKinds(t *testing.T) {
	store := artifact.NewStore()
	ctx := artifact.With(context.Background(), store)
	if _, _, err := fetchWorld(ctx, parallel.Pool{}, scenario.SouthAfricaID); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want world + rib", st.Entries)
	}
	// Both the world and the RIB must contribute bytes: before the fix
	// their specs passed no Size and the LRU bound saw zero for either.
	if st.Bytes < 2048 {
		t.Fatalf("resident bytes = %d: world/rib sizes missing from the byte bound", st.Bytes)
	}
}
