package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/probe"
)

// TestDiDSharesTrunkWithoutStore: a run given no store shares its own
// builds, so did's joined and no-join campaigns branch from one trunk.
func TestDiDSharesTrunkWithoutStore(t *testing.T) {
	e, err := Get("did")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := e.Run(obs.With(context.Background(), rec), Config{}); err != nil {
		t.Fatal(err)
	}
	if reused := rec.Metrics()["did"]["campaign.steps_reused"]; reused <= 0 {
		t.Fatalf("campaign.steps_reused = %v, want > 0: the run's campaigns did not share a trunk", reused)
	}
}

// TestCachedSuiteBuildsEachKeyOnce pins the build-once property: across the
// whole suite, with experiments racing into one store on four workers,
// every ⟨kind, scenario, seed, config⟩ coordinate is built exactly once,
// asserted both on the store's per-key counters and on the obs
// cache.miss.* counters summed across experiment scopes.
func TestCachedSuiteBuildsEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run")
	}
	r, err := obsParSuite()
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
// mauls the returned world, and verifies a refetch sees none of it: the
// world is a fresh fork, while the measurement store is the one frozen
// original, shared with every fetch and refusing Add.
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

	// The store refuses the one store-side mutator; measurement interiors
	// are immutable after ingestion (VerifyFrozen checks them under -race).
	// The world is mauled through its supported mutators.
	if err := ms1.Add(&probe.Measurement{ID: 1 << 30, Intent: probe.IntentBaseline, Hour: 1}); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("Add on a fetched campaign store: err = %v, want the frozen error", err)
	}
	s1.TreatedASNs[0] = 65000
	s1.Topo.SetLinkUp(0, false)

	s2, ms2, err := fetchCampaign(ctx, pool, scenario.SouthAfricaID, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	if ms2 != ms1 {
		t.Fatal("refetch copied the frozen measurement store instead of sharing it")
	}
	if s2 == s1 || s2.Topo == s1.Topo {
		t.Fatal("refetch returned a shared world, not a fork")
	}
	if ms2.Len() != origLen {
		t.Fatalf("store length drifted: %d vs %d", ms2.Len(), origLen)
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

	// Under -race, a write through a shared *Measurement panics at the
	// next fetch.
	if !raceEnabled {
		return
	}
	ms2.All()[0].RTTms = -999
	defer func() {
		if recover() == nil {
			t.Fatal("fetch after an interior write did not panic")
		}
	}()
	_, _, _ = fetchCampaign(ctx, pool, scenario.SouthAfricaID, 42, p)
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
