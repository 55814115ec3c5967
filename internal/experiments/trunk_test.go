package experiments

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// campaignCase is one campaign of the equivalence battery.
type campaignCase struct {
	name string
	id   string
	seed uint64
	p    campaignParams
}

// trunkCases is the battery: on the South Africa world and a generated
// one, Table 1's and DiD's joined campaigns and their no-join replays, a
// join at and after the horizon, a second user rate, and a flap schedule
// whose flap goes down at hour 504 — week 3's join hour, and the 3-week
// horizon, so a 6-week joined campaign's branch fires a join and a flap in
// one hour. On the generated world the flapping link is a joining AS's
// provider link, whose load the join shifts only while it is up. (No
// record here crosses that link after the join, so the order of the two is
// held by the engine's TestRescheduleMatchesScheduleFromStart.) On the
// South Africa world a donor also joins (AlsoJoin).
func trunkCases(t *testing.T) []campaignCase {
	t.Helper()
	sa, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := sa.Topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	genID := batteryWorld(t)
	gen, err := scenario.Build(genID)
	if err != nil {
		t.Fatal(err)
	}
	worlds := []struct {
		id   string
		flap topo.LinkID
	}{
		{scenario.SouthAfricaID, rel.Links[scenario.BigContent][scenario.ZATransitA][1]},
		{genID, providerLink(t, gen, gen.TreatedASNs[0])},
	}
	var cases []campaignCase
	for _, w := range worlds {
		add := func(name string, weeks, joinWeek int, join bool, edit func(*campaignParams)) {
			p := campaignParams{Weeks: weeks, JoinWeek: joinWeek, UserRate: 0.25, Join: join}
			if edit != nil {
				edit(&p)
			}
			cases = append(cases, campaignCase{name: w.id + "/" + name, id: w.id, seed: 42, p: p})
		}
		flap101 := func(p *campaignParams) { p.FlapLink, p.FlapEveryHours = w.flap, 101 }
		add("table1", 6, 3, true, nil)
		add("table1-truth", 6, 3, false, nil)
		add("did", 4, 2, true, nil)
		add("did-truth", 4, 2, false, nil)
		add("join-at-horizon", 3, 3, true, nil)
		add("join-after-horizon", 3, 5, true, nil)
		add("flap101-join3", 6, 3, true, flap101)
		add("flap101-truth", 6, 3, false, flap101)
		add("flap101-horizon504", 3, 3, false, flap101)
		add("flap101-join-at-horizon504", 3, 3, true, flap101)
		add("rate", 2, 1, true, func(p *campaignParams) { p.UserRate = 0.5 })
		if w.id == scenario.SouthAfricaID {
			add("alsojoin", 3, 2, true, func(p *campaignParams) { p.AlsoJoin = []topo.ASN{36874} })
		}
	}
	return cases
}

// providerLink returns the first link from asn to its lowest-numbered
// provider: a multihomed access AS stays reachable while it flaps.
func providerLink(t *testing.T, s *scenario.World, asn topo.ASN) topo.LinkID {
	t.Helper()
	rel, err := s.Topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	var best topo.ASN
	found := false
	for n, k := range rel.Rel[asn] {
		if k == topo.RelCustomer && (!found || n < best) {
			best, found = n, true
		}
	}
	if !found {
		t.Fatalf("AS%d has no provider", asn)
	}
	return rel.Links[asn][best][0]
}

var (
	oracleOnce  sync.Once
	oracleCases []campaignCase
	oracleByKey map[string]campaign
)

// oracle returns the battery and each case's from-scratch campaign,
// simulated once per test binary.
func oracle(t *testing.T) ([]campaignCase, map[string]campaign) {
	t.Helper()
	oracleOnce.Do(func() {
		cases := trunkCases(t)
		byKey := make(map[string]campaign, len(cases))
		for _, c := range cases {
			want, err := runCampaignFromScratch(context.Background(), parallel.Pool{}, c.id, c.seed, c.p)
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			byKey[c.name] = want
		}
		oracleCases, oracleByKey = cases, byKey
	})
	if oracleByKey == nil {
		t.Fatal("oracle campaigns failed to build")
	}
	return oracleCases, oracleByKey
}

// TestTrunkCampaignsMatchFromScratch holds every trunk-built campaign to the
// from-scratch simulation, record for record under math.Float64bits and in
// its post-simulation topology: built privately (a private store per
// campaign; the South Africa cases), and through one store per request
// order, in two shuffled orders. Through the store each family simulates
// its trunk once, so the steps simulated fall short of the campaigns'
// summed horizons by exactly the steps reused.
func TestTrunkCampaignsMatchFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the campaign battery")
	}
	cases, want := oracle(t)
	pool := parallel.Pool{}
	for _, c := range cases {
		if c.id != scenario.SouthAfricaID {
			continue // one world's battery covers the private-store path
		}
		got, err := runCampaign(context.Background(), pool, c.id, c.seed, c.p)
		if err != nil {
			t.Fatalf("%s: private trunk: %v", c.name, err)
		}
		if d := campaignDiff(got, want[c.name]); d != "" {
			t.Fatalf("%s: private trunk: %s", c.name, d)
		}
	}
	horizon := 0
	for _, c := range cases {
		horizon += c.p.Weeks * hoursPerWeek
	}
	for _, order := range []int64{1, 2} {
		shuffled := append([]campaignCase(nil), cases...)
		rand.New(rand.NewSource(order)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		rec := obs.NewRecorder()
		ctx := obs.With(artifact.With(context.Background(), artifact.NewStore()), rec)
		for _, c := range shuffled {
			s, store, err := fetchCampaign(ctx, pool, c.id, c.seed, c.p)
			if err != nil {
				t.Fatalf("order %d, %s: %v", order, c.name, err)
			}
			if d := campaignDiff(campaign{world: s, store: store}, want[c.name]); d != "" {
				t.Fatalf("order %d, %s: %s", order, c.name, d)
			}
		}
		m := rec.Metrics()[""]
		steps, reused := int(m["campaign.steps"]), int(m["campaign.steps_reused"])
		if steps+reused != horizon || reused == 0 {
			t.Errorf("order %d: %d steps simulated + %d reused, want %d in all with some reused", order, steps, reused, horizon)
		}
	}
}

// TestTrunkConcurrentFetches fetches the whole battery from many goroutines
// at once through one store — every family's trunk extended by whichever
// campaign needs a week first — and holds each result to the oracle.
// Under -race it checks that trunk extension, checkpoint forks and shared
// record prefixes do not race.
func TestTrunkConcurrentFetches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the campaign battery")
	}
	cases, want := oracle(t)
	ctx := artifact.With(context.Background(), artifact.NewStore())
	pool := parallel.NewPool(2)
	errs := make(chan error, 2*len(cases))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			wg.Add(1)
			go func(c campaignCase) {
				defer wg.Done()
				s, store, err := fetchCampaign(ctx, pool, c.id, c.seed, c.p)
				if err == nil {
					if d := campaignDiff(campaign{world: s, store: store}, want[c.name]); d != "" {
						err = errors.New(d)
					}
				}
				if err != nil {
					errs <- errors.New(c.name + ": " + err.Error())
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// budgetCtx is a live context whose Err reports cancellation once it has
// been asked more than budget times: engine.Step asks once per step, so it
// cancels a simulation partway through.
type budgetCtx struct {
	context.Context
	budget int64
	calls  atomic.Int64
}

func (c *budgetCtx) Err() error {
	if c.calls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

// TestTrunkCancelledExtension cancels a campaign build partway through its
// trunk's extension. The trunk must keep only whole checkpoints, and the
// next build — through the same store, on a live context — must equal the
// from-scratch campaign.
func TestTrunkCancelledExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign")
	}
	_, want := oracle(t)
	c := campaignCase{id: scenario.SouthAfricaID, seed: 42, p: campaignParams{Weeks: 6, JoinWeek: 3, UserRate: 0.25, Join: true}}
	store := artifact.NewStore()
	live := artifact.With(context.Background(), store)
	pool := parallel.Pool{}
	// A one-week campaign commits the trunk's first checkpoint.
	if _, _, err := fetchCampaign(live, pool, c.id, c.seed, campaignParams{Weeks: 1, UserRate: 0.25}); err != nil {
		t.Fatal(err)
	}
	// Table 1's campaign extends the trunk to week 3 first; 50 context
	// checks in, the second week's extension is cut off.
	cut := &budgetCtx{Context: live, budget: 50}
	if _, _, err := fetchCampaign(cut, pool, c.id, c.seed, c.p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cut build: err = %v, want context.Canceled", err)
	}
	tr, err := fetchTrunk(live, pool, c.id, c.seed, c.p)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	cps, recs := len(tr.cps), len(tr.records)
	last := tr.cps[cps-1]
	tr.mu.Unlock()
	if cps != 2 || last.steps != hoursPerWeek-1 || recs != last.records {
		t.Fatalf("after the cut: %d checkpoints, the last at step %d with %d of the trunk's %d records; want 2, step %d, all of them",
			cps, last.steps, last.records, recs, hoursPerWeek-1)
	}
	s, ms, err := fetchCampaign(live, pool, c.id, c.seed, c.p)
	if err != nil {
		t.Fatal(err)
	}
	if d := campaignDiff(campaign{world: s, store: ms}, want[scenario.SouthAfricaID+"/table1"]); d != "" {
		t.Fatalf("rebuild after the cut: %s", d)
	}
}
