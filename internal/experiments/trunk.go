package experiments

import (
	"context"
	"sync"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// hoursPerWeek is one campaign week of one-hour engine steps.
const hoursPerWeek = 7 * 24

// trunkParams identifies a campaign family: the campaign inputs, beside
// ⟨scenario id, seed⟩, that the no-join simulation depends on. Every
// campaign of a family — no-join or joined, of any length, with any join
// week — is the family's trunk up to the hour before its join.
type trunkParams struct {
	UserRate       float64
	FlapLink       topo.LinkID
	FlapEveryHours float64
}

// family returns p's campaign family. Without flaps the flap link routes
// nothing, so it is left out and such campaigns share one trunk.
func (p campaignParams) family() trunkParams {
	f := trunkParams{UserRate: p.UserRate}
	if p.FlapEveryHours > 0 {
		f.FlapLink, f.FlapEveryHours = p.FlapLink, p.FlapEveryHours
	}
	return f
}

// events is the campaign's event schedule over world s, in the order
// campaigns have always scheduled it: every join, then each flap's down
// and up.
func (p campaignParams) events(s *scenario.World) []engine.Event {
	var evs []engine.Event
	if p.Join {
		joinHour := float64(p.JoinWeek * hoursPerWeek)
		for _, asn := range s.TreatedASNs {
			evs = append(evs, engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
		}
		for _, asn := range p.AlsoJoin {
			evs = append(evs, engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
		}
	}
	for _, h := range flapHours(p.hours(), p.FlapEveryHours) {
		evs = append(evs, engine.EvLinkDown(h, p.FlapLink), engine.EvLinkUp(h+6, p.FlapLink))
	}
	return evs
}

// sim is one running campaign simulation: the engine, the prober measuring
// it and the users testing through it.
type sim struct {
	e  *engine.Engine
	pr *probe.Prober
	um *platform.UserModel
}

// fork returns an independent copy of the simulation bound to ctx.
func (s sim) fork(ctx context.Context) sim {
	e := s.e.Fork(ctx)
	return sim{e: e, pr: s.pr.Fork(e), um: s.um.Fork()}
}

// runUntil steps the simulation until its clock reads hour, handing each
// step's records to add, and returns the steps it took. add must not keep
// the slice it is handed (the records themselves it may): the next step
// reuses it.
func (s sim) runUntil(hour float64, add func(...*probe.Measurement) error) (int, error) {
	steps := 0
	var ms []*probe.Measurement
	for s.e.Hour() < hour {
		if err := s.e.Step(); err != nil {
			return steps, err
		}
		steps++
		var err error
		if ms, err = s.um.Step(s.pr, ms[:0], nil); err != nil {
			return steps, err
		}
		if err := add(ms...); err != nil {
			return steps, err
		}
	}
	return steps, nil
}

// checkpoint is a trunk simulation at a week boundary, never stepped
// again: after steps steps, with the trunk's first records records
// delivered by then.
type checkpoint struct {
	sim
	steps, records int
}

// trunk is a campaign family's no-join simulation, shared by every campaign
// of the family. It is simulated on demand, a week at a time, and
// checkpointed at each week boundary: cps[w] is the simulation after
// w·168−1 steps (cps[0] the one at hour 0). Campaigns and extensions step
// forks of a checkpoint, never the checkpoint itself, and an extension
// commits its checkpoint and records only once it succeeds, so a failed
// or cancelled one leaves the trunk at its last checkpoint.
type trunk struct {
	// cast is the world's casting (units, exchange, content networks);
	// its Topo is nil, each simulation owning its own topology.
	cast *scenario.World
	fam  trunkParams

	mu      sync.Mutex
	cps     []checkpoint
	records []*probe.Measurement
}

// newTrunk sets up the family's simulation at hour 0 over a fetched world:
// an adaptive-egress engine, its prober and the user model over every
// unit's population.
func newTrunk(ctx context.Context, pool parallel.Pool, id string, seed uint64, fam trunkParams) (*trunk, error) {
	s, rib, err := fetchWorld(ctx, pool, id)
	if err != nil {
		return nil, err
	}
	if fam.FlapEveryHours > 0 && (fam.FlapLink < 0 || int(fam.FlapLink) >= s.Topo.NumLinks()) {
		return nil, queryInvalidf("FlapLink %d is not a link of world %q (it has %d)", fam.FlapLink, id, s.Topo.NumLinks())
	}
	var pops []platform.UserPop
	for _, u := range s.AllUnits() {
		src, err := s.UserPoP(u)
		if err != nil {
			return nil, err
		}
		pops = append(pops, platform.UserPop{Src: src, Dst: s.MeasureDst(), Size: 1})
	}
	e := engine.New(s.Topo, seed, engine.Config{AdaptiveEgress: true, Pool: pool, InitialRIB: rib})
	um := platform.NewUserModel(pops, seed+2)
	um.BaseRate = fam.UserRate
	// The hour-0 checkpoint is never stepped: frozen, its topology's
	// clones are copy-on-write views.
	s.Topo.Freeze()
	cast := *s
	cast.Topo = nil
	return &trunk{
		cast: &cast,
		fam:  fam,
		cps:  []checkpoint{{sim: sim{e: e, pr: probe.NewProber(e, seed+1), um: um}}},
	}, nil
}

// checkpoint returns checkpoint w and the records delivered up to it,
// simulating on ctx, under the trunk's lock, the weeks the trunk lacks;
// simulated is the number of steps that took.
func (t *trunk) checkpoint(ctx context.Context, w int) (cp checkpoint, records []*probe.Measurement, simulated int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := len(t.cps); k <= w; k++ {
		s := t.cps[k-1].fork(ctx)
		// The no-join schedule up to the week's end holds every event due
		// by the checkpoint hour.
		s.e.Reschedule(campaignParams{Weeks: k, FlapLink: t.fam.FlapLink, FlapEveryHours: t.fam.FlapEveryHours}.events(t.cast)...)
		var recs []*probe.Measurement
		n, err := s.runUntil(float64(k*hoursPerWeek-1), func(ms ...*probe.Measurement) error {
			recs = append(recs, ms...)
			return nil
		})
		simulated += n
		if err != nil {
			return checkpoint{}, nil, simulated, err
		}
		// A checkpoint keeps no request's context, and is never mutated.
		s.e.Bind(context.Background())
		s.e.Topo.Freeze()
		t.records = append(t.records, recs...)
		t.cps = append(t.cps, checkpoint{sim: s, steps: t.cps[k-1].steps + n, records: len(t.records)})
	}
	cp = t.cps[w]
	return cp, t.records[:cp.records:cp.records], simulated, nil
}

// branch simulates campaign p of the trunk's family. It forks the
// checkpoint of the campaign's fork week — its join week, or its last week
// when it has no join inside its horizon — installs the campaign's own
// event schedule there, and simulates only the hours after it. The
// checkpoint sits one hour before the week boundary so that a join and any
// flap due at the boundary fire in the branch, in the schedule's order.
// The store holds the trunk's records up to the checkpoint (the same
// pointers) and the branch's own; the world is the branch's topology.
func (t *trunk) branch(ctx context.Context, p campaignParams) (campaign, error) {
	w := p.Weeks
	if p.Join && p.JoinWeek < w {
		w = p.JoinWeek
	}
	cp, prefix, simulated, err := t.checkpoint(ctx, w)
	if err != nil {
		return campaign{}, err
	}
	s := cp.fork(ctx)
	s.e.Reschedule(p.events(t.cast)...)
	store := platform.NewStore()
	if err := store.Add(prefix...); err != nil {
		return campaign{}, err
	}
	n, err := s.runUntil(p.hours(), store.Add)
	if err != nil {
		return campaign{}, err
	}
	obs.Add(ctx, "campaign.steps", int64(simulated+n))
	obs.Add(ctx, "campaign.steps_reused", int64(cp.steps-simulated))
	world := *t.cast
	world.Topo = s.e.Topo
	return campaign{world: &world, store: store}, nil
}

// fetchTrunk returns the trunk of p's campaign family: the shared one in
// the artifact store, built empty on first use, or a private one when no
// store rides the context. A trunk is not copied on fetch: it is extended
// under its own lock, and what it hands out — frozen checkpoints and record
// prefixes — is never written. It has no size estimate (the records it
// holds are the ones its campaigns' stores count).
func fetchTrunk(ctx context.Context, pool parallel.Pool, id string, seed uint64, p campaignParams) (*trunk, error) {
	fam := p.family()
	key, err := artifact.NewKey(kindTrunk, id, seed, fam)
	if err != nil {
		return nil, err
	}
	return artifact.GetOrBuild(ctx, artifact.From(ctx), key, artifact.Spec[*trunk]{
		Build: func(ctx context.Context) (*trunk, error) { return newTrunk(ctx, pool, id, seed, fam) },
		Fork:  func(t *trunk) *trunk { return t },
	})
}
