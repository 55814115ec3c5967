package experiments

import (
	"context"

	"sisyphus/internal/artifact"
	"sisyphus/internal/faults"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
)

// Artifact kinds the experiments request through the store. A "world" is a
// freshly built scenario (seed-independent: the builders draw no
// randomness); a "rib" is the world's converged BGP fixed point under the
// empty policy (what every engine computes on first use); a "campaign" is a
// fully simulated measurement run — post-simulation world plus the platform
// store of everything the probes delivered; a "trunk" is a campaign
// family's shared no-join simulation, which campaigns branch from (see
// trunk).
const (
	kindWorld    = "world"
	kindRIB      = "rib"
	kindCampaign = "campaign"
	kindTrunk    = "trunk"
)

// fetchWorld returns a caller-owned scenario world plus a caller-owned
// fork of its converged empty-policy RIB to seed the engine with.
func fetchWorld(ctx context.Context, pool parallel.Pool, id string) (*scenario.World, *bgp.RIB, error) {
	st := artifact.From(ctx)
	wkey, err := artifact.NewKey(kindWorld, id, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	s, err := artifact.GetOrBuild(ctx, st, wkey, artifact.Spec[*scenario.World]{
		Build:  func(ctx context.Context) (*scenario.World, error) { return scenario.Build(id) },
		Fork:   (*scenario.World).Fork,
		Freeze: (*scenario.World).Freeze,
		Size:   (*scenario.World).SizeBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	rkey, err := artifact.NewKey(kindRIB, id, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	rib, err := artifact.GetOrBuild(ctx, st, rkey, artifact.Spec[*bgp.RIB]{
		// The stored RIB is computed over its own private world build so no
		// caller-owned topology leaks into the stored artifact; the empty
		// policy matches what a fresh engine computes on first use.
		Build: func(ctx context.Context) (*bgp.RIB, error) {
			w, err := scenario.Build(id)
			if err != nil {
				return nil, err
			}
			return bgp.Compute(ctx, pool, w.Topo, nil)
		},
		// Rebind each fork onto the caller's own world fork; a converged
		// RIB is immutable, so every fork shares its route tables.
		Fork: func(r *bgp.RIB) *bgp.RIB { return r.Fork(s.Topo) },
		Size: (*bgp.RIB).SizeBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	return s, rib, nil
}

// campaignParams is the canonical identity of one simulated measurement
// campaign — every field that changes the bytes the simulation produces.
// It hashes into the campaign artifact key alongside ⟨scenario id, seed⟩,
// so Table 1, DiD, the trombone-era contrast, and every chaos level that
// agree on these coordinates share one simulation. Analysis-side knobs
// (estimator method, bin width, coverage policy, WithTruth) deliberately do
// not appear: they reshape the analysis, not the data.
type campaignParams struct {
	Weeks          int
	JoinWeek       int
	UserRate       float64
	Join           bool
	AlsoJoin       []topo.ASN
	FlapLink       topo.LinkID
	FlapEveryHours float64
	// Faults and Retry are not simulation inputs: fetchCampaign keys and
	// builds the clean campaign with both zeroed and derives the faulted
	// one from it with faults.Apply. They stay in the struct because the
	// committed campaign key ids hash them.
	Faults *faults.Config
	Retry  faults.RetryPolicy
}

// campaignParamsFrom derives the campaign identity from a defaulted
// Table1Config.
func campaignParamsFrom(cfg Table1Config, join bool) campaignParams {
	return campaignParams{
		Weeks: cfg.Weeks, JoinWeek: cfg.JoinWeek, UserRate: cfg.UserRate,
		Join: join, AlsoJoin: cfg.AlsoJoin, FlapLink: cfg.FlapLink,
		FlapEveryHours: cfg.FlapEveryHours, Faults: cfg.Faults, Retry: cfg.Retry,
	}
}

// hours is the campaign's simulated horizon.
func (p campaignParams) hours() float64 { return float64(p.Weeks * hoursPerWeek) }

// flapHours returns the link-flap schedule: flap i goes down at the
// closed-form hour 100 + i*period, up 6 hours later, for every flap before
// totalHours. The closed form matters: the accumulating alternative
// (h += period) compounds one float rounding error per flap, so flap i's
// hour drifts from what an equivalent schedule computed elsewhere gets for
// the same i — and schedule identity is what lets two campaigns that agree
// on a key agree on their bytes. A non-positive period schedules nothing.
func flapHours(totalHours, period float64) []float64 {
	if period <= 0 {
		return nil
	}
	var hs []float64
	for i := 0; ; i++ {
		h := 100 + float64(i)*period
		if h >= totalHours {
			return hs
		}
		hs = append(hs, h)
	}
}

// campaign is the campaign artifact: the post-simulation world (IXP joins
// and flaps applied) and the store of every measurement the platform
// ingested.
type campaign struct {
	world *scenario.World
	store *platform.Store
}

// runCampaign builds one clean measurement campaign: the branch of its
// family's trunk (see trunk.branch), which simulates only the hours the
// campaign does not share with the family's no-join simulation. This is
// the build function behind the campaign artifact and the single place
// campaign simulation happens — Table 1's pipeline, the DiD re-analysis and
// every chaos level draw from it. It reads no fault params.
func runCampaign(ctx context.Context, pool parallel.Pool, id string, seed uint64, p campaignParams) (campaign, error) {
	t, err := fetchTrunk(ctx, pool, id, seed, p)
	if err != nil {
		return campaign{}, err
	}
	c, err := t.branch(ctx, p)
	if err != nil {
		return campaign{}, err
	}
	// Run-trace accounting, per built campaign (cache hits skip it).
	// No-ops without a recorder.
	cov := c.store.TotalCoverage()
	obs.Add(ctx, "store.scheduled", int64(cov.Scheduled))
	obs.Add(ctx, "store.delivered", int64(cov.Delivered))
	obs.Add(ctx, "store.failed", int64(cov.Failed))
	obs.Gauge(ctx, "store.coverage", cov.Fraction())
	return c, nil
}

// fetchCampaign returns a campaign — a caller-owned post-simulation world
// and the measurement store — through the context's artifact store. The
// clean campaign is
// fetched under the params with their fault fields zeroed, so every fault
// level of one campaign shares a single simulation; when p.Faults is
// enabled, the faulted store is derived from the clean records with
// faults.Apply. The clean store is the frozen original itself, shared
// with every other fetch: it refuses Add, and its measurements must not be
// written.
func fetchCampaign(ctx context.Context, pool parallel.Pool, id string, seed uint64, p campaignParams) (*scenario.World, *platform.Store, error) {
	fc, retry := p.Faults, p.Retry
	p.Faults, p.Retry = nil, faults.RetryPolicy{}
	key, err := artifact.NewKey(kindCampaign, id, seed, p)
	if err != nil {
		return nil, nil, err
	}
	c, err := artifact.GetOrBuild(ctx, artifact.From(ctx), key, artifact.Spec[campaign]{
		Build: func(ctx context.Context) (campaign, error) { return runCampaign(ctx, pool, id, seed, p) },
		// Only the world is forked: engines write its topology. The frozen
		// store refuses writes, so sharing it is as safe as copying it.
		Fork: func(c campaign) campaign {
			c.store.VerifyFrozen()
			return campaign{world: c.world.Fork(), store: c.store}
		},
		Freeze: func(c campaign) {
			c.world.Freeze()
			c.store.Freeze()
		},
		// The campaign's residency is the measurement store (with its
		// indexes) plus the post-simulation world riding along with it —
		// the old store-only size undercounted what the LRU actually held.
		Size: func(c campaign) int64 { return c.store.SizeBytes() + c.world.SizeBytes() },
	})
	if err != nil {
		return nil, nil, err
	}
	if fc == nil || !fc.Enabled() {
		return c.world, c.store, nil
	}
	ms, err := faults.Apply(ctx, *fc, retry, c.world.Topo, p.hours(), c.store.All())
	if err != nil {
		return nil, nil, err
	}
	store := platform.NewStore()
	if err := store.Add(ms...); err != nil {
		return nil, nil, err
	}
	return c.world, store, nil
}
