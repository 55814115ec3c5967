package experiments

import (
	"context"
	"fmt"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/parallel"
)

// uniform is base + spread·U for one U ~ [0, 1) drawn from the caller's RNG.
type uniform struct{ base, spread float64 }

func (u uniform) draw(rng *mathx.RNG) float64 { return u.base + u.spread*rng.Float64() }

// crowdPlan is a recurring flash-crowd schedule, the congestion C of the
// running example: the first crowd starts at hour start, and each crowd
// draws its duration, then its magnitude, then the gap to the next crowd's
// start from the caller's RNG.
type crowdPlan struct {
	start         float64
	dur, mag, gap uniform
}

// calmCrowds is the crowd plan of the instrument and family-knob studies,
// which read their ground truth at the calm hours between crowds.
var calmCrowds = crowdPlan{start: 30, dur: uniform{6, 10}, mag: uniform{0.3, 0.2}, gap: uniform{40, 50}}

// schedule adds every crowd of the plan that starts before hours, once per
// link in links order, and returns each crowd's [start, end) window.
func (p crowdPlan) schedule(add func(traffic.FlashCrowd), rng *mathx.RNG, hours int, links ...topo.LinkID) [][2]float64 {
	var windows [][2]float64
	for h := p.start; h < float64(hours); h += p.gap.draw(rng) {
		dur := p.dur.draw(rng)
		mag := p.mag.draw(rng)
		for _, id := range links {
			add(traffic.FlashCrowd{Link: id, StartHour: h, Hours: dur, Magnitude: mag})
		}
		windows = append(windows, [2]float64{h, h + dur})
	}
	return windows
}

// eyeball is the running example's set-up on a registry world: the world's
// AS relationships, its cast multihomed eyeball, an engine over the world
// bound to the run context, the eyeball's PoP, the measurement target, and
// the eyeball's link to its primary transit — where flash crowds congest
// the primary route.
type eyeball struct {
	rel     *topo.ASRelationships
	cast    scenario.EyeballCast
	e       *engine.Engine
	src     topo.PoPID
	dst     topo.ASN
	primary topo.LinkID
}

// newEyeball fetches the named world and builds its eyeball harness; the
// engine runs under cfg plus the pool and the world's converged RIB. A
// world that casts no multihomed eyeball refuses with
// scenario.ErrCastingMissing.
func newEyeball(ctx context.Context, pool parallel.Pool, scenarioID string, seed uint64, cfg engine.Config) (*eyeball, error) {
	s, rib, err := fetchWorld(ctx, pool, scenarioID)
	if err != nil {
		return nil, err
	}
	cast, err := s.RequireEyeball()
	if err != nil {
		return nil, fmt.Errorf("experiments: world %q: %w", scenarioID, err)
	}
	rel, err := s.Topo.Relationships()
	if err != nil {
		return nil, err
	}
	src, err := s.Topo.FindPoP(cast.ASN, cast.City)
	if err != nil {
		return nil, err
	}
	cfg.Pool, cfg.InitialRIB = pool, rib
	return &eyeball{
		rel: rel, cast: cast, src: src, dst: s.MeasureDst(),
		e:       engine.New(s.Topo, seed, cfg).Bind(ctx),
		primary: rel.Links[cast.ASN][cast.Primary][0],
	}, nil
}

// crowds schedules plan's flash crowds on the primary transit link.
func (h *eyeball) crowds(plan crowdPlan, rng *mathx.RNG, hours int) [][2]float64 {
	return plan.schedule(h.e.Traffic.AddFlashCrowd, rng, hours, h.primary)
}

// onAlternate is the route R: 1 when the AS path crosses the alternate
// transit, else 0.
func (h *eyeball) onAlternate(path []topo.ASN) float64 {
	for _, asn := range path {
		if asn == h.cast.Alternate {
			return 1
		}
	}
	return 0
}

// observeForced measures the eyeball's performance with the given transit
// avoided for one instant: a what-if on a policy clone, so the factual
// policy and routes are never touched.
func (h *eyeball) observeForced(avoid topo.ASN) (*engine.PathPerf, error) {
	other := h.cast.Primary
	if avoid == h.cast.Primary {
		other = h.cast.Alternate
	}
	return h.e.PerfToASWith(h.src, h.dst, func(p *bgp.Policy) {
		p.SetLocalPref(h.cast.ASN, avoid, 10)
		p.SetLocalPref(h.cast.ASN, other, bgp.PrefProvider)
	})
}

// forcedContrast is the route's ground-truth effect at this instant,
// do(R = alt) − do(R = primary): the RTT with the egress pinned to each
// transit in turn, under identical conditions. Both are what-ifs, so the
// factual trajectory is untouched.
func (h *eyeball) forcedContrast() (float64, error) {
	viaAlt, err := h.observeForced(h.cast.Primary)
	if err != nil {
		return 0, err
	}
	viaPrimary, err := h.observeForced(h.cast.Alternate)
	if err != nil {
		return 0, err
	}
	return viaAlt.RTTms - viaPrimary.RTTms, nil
}

// board is the purpose-built world of the collider and intent experiments:
// eyeball AS 7000 and content AS 4001, both in Johannesburg, each a
// customer of transits 100 and 101, so either transit reaches the content
// over a path of the same length.
type board struct {
	tp  *topo.Topology
	rel *topo.ASRelationships
	src topo.PoPID // the eyeball's PoP
}

// dualTransitBoard builds the board. The eyeball's link to transit 100
// carries primaryUtil base utilization; the other three links carry 0.4.
func dualTransitBoard(primaryUtil float64) (*board, error) {
	tp, err := topo.NewBuilder(nil).
		AddAS(100, "T-A", topo.Transit, "Johannesburg").
		AddAS(101, "T-B", topo.Transit, "Johannesburg").
		AddAS(7000, "Eyeball", topo.Access, "Johannesburg").
		AddAS(4001, "Content", topo.Content, "Johannesburg").
		Connect(7000, "Johannesburg", topo.CustomerOf, 100, "Johannesburg", topo.WithBaseUtil(primaryUtil)).
		Connect(7000, "Johannesburg", topo.CustomerOf, 101, "Johannesburg", topo.WithBaseUtil(0.4)).
		Connect(4001, "Johannesburg", topo.CustomerOf, 100, "Johannesburg", topo.WithBaseUtil(0.4)).
		Connect(4001, "Johannesburg", topo.CustomerOf, 101, "Johannesburg", topo.WithBaseUtil(0.4)).
		Build()
	if err != nil {
		return nil, err
	}
	rel, err := tp.Relationships()
	if err != nil {
		return nil, err
	}
	src, err := tp.FindPoP(7000, "Johannesburg")
	if err != nil {
		return nil, err
	}
	return &board{tp: tp, rel: rel, src: src}, nil
}
