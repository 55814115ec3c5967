package experiments

import (
	"context"

	"sisyphus/internal/artifact"
	"sisyphus/internal/faults"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// Artifact kinds the experiments request through the store. A "world" is a
// freshly built scenario (seed-independent: the builders draw no
// randomness); a "rib" is the world's converged BGP fixed point under the
// empty policy (what every engine computes on first use); a "campaign" is a
// fully simulated measurement run — post-simulation world plus the platform
// store of everything the probes delivered.
const (
	kindWorld    = "world"
	kindRIB      = "rib"
	kindCampaign = "campaign"
)

// fetchWorld returns a caller-owned scenario world plus (when the cache is
// live) a caller-owned fork of its converged empty-policy RIB to seed the
// engine with. With no store on the context it builds the world directly
// and returns a nil RIB — the engine then computes its own fixed point
// lazily, exactly the pre-cache code path.
func fetchWorld(ctx context.Context, pool parallel.Pool, id string) (*scenario.World, *bgp.RIB, error) {
	st := artifact.From(ctx)
	if st == nil {
		s, err := scenario.Build(id)
		return s, nil, err
	}
	wkey, err := artifact.NewKey(kindWorld, id, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	s, err := artifact.GetOrBuild(ctx, st, wkey, artifact.Spec[*scenario.World]{
		Build:  func(ctx context.Context) (*scenario.World, error) { return scenario.Build(id) },
		Fork:   (*scenario.World).Fork,
		Freeze: (*scenario.World).Freeze,
		Size:   (*scenario.World).SizeBytes,
		Codec: &artifact.Codec[*scenario.World]{
			Version: worldCodecVersion,
			Encode:  EncodeWorldArtifact,
			Decode:  DecodeWorldArtifact,
		},
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
		Codec: &artifact.Codec[*bgp.RIB]{
			Version: ribCodecVersion,
			Encode:  EncodeRIBArtifact,
			// Decode rebinds onto a freshly built private world, exactly as
			// Build computes over its own private world: no caller-owned
			// topology leaks into the stored original either way.
			Decode: func(b []byte) (*bgp.RIB, error) {
				w, err := scenario.Build(id)
				if err != nil {
					return nil, err
				}
				return DecodeRIBArtifact(b, w.Topo)
			},
		},
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
	Faults         *faults.Config
	Retry          probe.RetryPolicy
}

// campaignParamsFrom derives the campaign identity from a defaulted
// Table1Config. A disabled fault config (nil or every rate zero) is
// normalized away along with its retry policy: TestFaultRateZeroBitIdentity
// certifies a zero-rate injector is bit-identical to no injector, so the
// normalized key lets the fault-free chaos level share the clean campaign.
func campaignParamsFrom(cfg Table1Config, join bool) campaignParams {
	p := campaignParams{
		Weeks: cfg.Weeks, JoinWeek: cfg.JoinWeek, UserRate: cfg.UserRate,
		Join: join, AlsoJoin: cfg.AlsoJoin, FlapLink: cfg.FlapLink,
		FlapEveryHours: cfg.FlapEveryHours, Faults: cfg.Faults, Retry: cfg.Retry,
	}
	if p.Faults != nil && !p.Faults.Enabled() {
		p.Faults = nil
	}
	if p.Faults == nil {
		p.Retry = probe.RetryPolicy{}
	}
	return p
}

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

// runCampaign simulates one measurement campaign from scratch: fetch (or
// build) the world, seed an adaptive-egress engine, schedule the joins and
// flaps the params call for, drive the user model over the full horizon,
// and ingest everything into a platform store. This is the build function
// behind the campaign artifact and the single place campaign simulation
// happens — Table 1's pipeline and the DiD re-analysis both draw from it.
func runCampaign(ctx context.Context, pool parallel.Pool, id string, seed uint64, p campaignParams) (campaign, error) {
	totalHours := float64(p.Weeks) * 7 * 24
	joinHour := float64(p.JoinWeek) * 7 * 24

	s, rib, err := fetchWorld(ctx, pool, id)
	if err != nil {
		return campaign{}, err
	}
	e := engine.New(s.Topo, seed, engine.Config{AdaptiveEgress: true, Pool: pool, InitialRIB: rib}).Bind(ctx)
	pr := probe.NewProber(e, seed+1)
	// Each world gets its own injector so the factual and counterfactual
	// runs see identical fault streams (same seed, same pre-split rule).
	var inj *faults.Injector
	if p.Faults != nil {
		inj = faults.New(*p.Faults)
		pr.Hook = inj
		pr.Retry = p.Retry
	}
	if p.Join {
		for _, asn := range s.TreatedASNs {
			e.Schedule(engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
		}
		for _, asn := range p.AlsoJoin {
			e.Schedule(engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
		}
	}
	for _, h := range flapHours(totalHours, p.FlapEveryHours) {
		e.Schedule(engine.EvLinkDown(h, p.FlapLink))
		e.Schedule(engine.EvLinkUp(h+6, p.FlapLink))
	}
	var pops []platform.UserPop
	for _, u := range s.AllUnits() {
		src, err := s.UserPoP(u)
		if err != nil {
			return campaign{}, err
		}
		pops = append(pops, platform.UserPop{Src: src, Dst: s.MeasureDst(), Size: 1})
	}
	um := platform.NewUserModel(pops, seed+2)
	um.BaseRate = p.UserRate
	store := platform.NewStore()
	for e.Hour() < totalHours {
		if err := ctx.Err(); err != nil {
			return campaign{}, err
		}
		if err := e.Step(); err != nil {
			return campaign{}, err
		}
		_, ms, err := um.Step(pr)
		if err != nil {
			return campaign{}, err
		}
		if inj != nil {
			ms = inj.Deliver(ms...)
		}
		if err := store.Add(ms...); err != nil {
			return campaign{}, err
		}
	}
	if inj != nil {
		if err := store.Add(inj.Flush()...); err != nil {
			return campaign{}, err
		}
	}
	// Run-trace accounting, per simulated campaign (cache hits skip it: no
	// simulation happened). No-ops without a recorder.
	if inj != nil {
		st := inj.Stats()
		obs.Add(ctx, "faults.drops", st.Drops)
		obs.Add(ctx, "faults.outage_failures", st.OutageFailures)
		obs.Add(ctx, "faults.truncations", st.Truncations)
		obs.Add(ctx, "faults.duplicates", st.Duplicates)
		obs.Add(ctx, "faults.reorders", st.Reorders)
	}
	cov := store.TotalCoverage()
	obs.Add(ctx, "store.scheduled", int64(cov.Scheduled))
	obs.Add(ctx, "store.delivered", int64(cov.Delivered))
	obs.Add(ctx, "store.failed", int64(cov.Failed))
	obs.Gauge(ctx, "store.coverage", cov.Fraction())
	return campaign{world: s, store: store}, nil
}

// fetchCampaign returns a caller-owned campaign — post-simulation world and
// measurement store — through the artifact cache when one rides the
// context, or by simulating directly when not. Params are normalized (see
// campaignParamsFrom) before both keying and building, so everyone who
// shares a key also shares the exact build recipe.
func fetchCampaign(ctx context.Context, pool parallel.Pool, id string, seed uint64, p campaignParams) (*scenario.World, *platform.Store, error) {
	st := artifact.From(ctx)
	if st == nil {
		c, err := runCampaign(ctx, pool, id, seed, p)
		if err != nil {
			return nil, nil, err
		}
		return c.world, c.store, nil
	}
	key, err := artifact.NewKey(kindCampaign, id, seed, p)
	if err != nil {
		return nil, nil, err
	}
	c, err := artifact.GetOrBuild(ctx, st, key, artifact.Spec[campaign]{
		Build: func(ctx context.Context) (campaign, error) { return runCampaign(ctx, pool, id, seed, p) },
		Fork: func(c campaign) campaign {
			return campaign{world: c.world.Fork(), store: c.store.Fork()}
		},
		Freeze: func(c campaign) {
			c.world.Freeze()
			c.store.Freeze()
		},
		// The campaign's residency is the measurement store (with its
		// indexes) plus the post-simulation world riding along with it —
		// the old store-only size undercounted what the LRU actually held.
		Size: func(c campaign) int64 { return c.store.SizeBytes() + c.world.SizeBytes() },
		Codec: &artifact.Codec[campaign]{
			Version: campaignCodecVersion,
			Encode:  func(c campaign) ([]byte, error) { return EncodeCampaignArtifact(c.world, c.store) },
			Decode: func(b []byte) (campaign, error) {
				w, st, err := DecodeCampaignArtifact(b)
				if err != nil {
					return campaign{}, err
				}
				return campaign{world: w, store: st}, nil
			},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return c.world, c.store, nil
}
