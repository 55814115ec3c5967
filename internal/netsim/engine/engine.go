// Package engine drives the simulated Internet through time. It owns the
// clock, fires scheduled events (IXP joins, link failures, maintenance
// windows, policy changes), re-reads routing when the control plane is
// dirtied — converging it only for a ⟨topology epoch, policy⟩ state it has
// not converged before — applies load-adaptive egress switching (the
// EdgeFabric/Espresso behaviour that makes congestion a *cause* of route
// changes), and answers performance queries (RTT, loss, throughput) along
// routed paths.
//
// Determinism contract: an Engine is fully determined by (topology
// constructor, seed, event list). Two engines built the same way but with
// different event lists share all noise for the components they have in
// common, which is what makes ground-truth counterfactuals ("replay the
// same six weeks without the IXP join") meaningful. The contract extends to
// forks: a Fork taken after n steps is the engine those n steps produced,
// so stepping it under some events is bit-identical to stepping the
// original under them, and an engine built with an event list whose events
// up to hour h are the ones fired is a Fork at h whose pending events
// Reschedule replaced — which is how a campaign that differs from its
// no-join counterfactual only from its join hour on simulates only the
// hours after it.
package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// Config tunes the engine.
type Config struct {
	// StepHours is the simulated time per Step call (default 1).
	StepHours float64
	// QueueScaleMs scales queueing delay per congested link (default 0.6).
	QueueScaleMs float64
	// PerHopMs is fixed processing delay per hop (default 0.05).
	PerHopMs float64
	// AdaptiveEgress enables congestion-driven egress switching.
	AdaptiveEgress bool
	// EgressHighUtil is the utilization that triggers a switch away
	// (default 0.82); EgressLowUtil the level that releases the override
	// (default 0.6).
	EgressHighUtil, EgressLowUtil float64
	// Pool shards routing recomputation (bgp.Compute) across workers. The
	// zero value is the default pool; routing is bit-identical at any width.
	Pool parallel.Pool
	// InitialRIB seeds the engine with a pre-converged routing state —
	// typically an artifact-store fork of the scenario's fixed point under
	// the empty policy. The engine starts clean (not dirty): the first RIB
	// query returns this state instead of recomputing it, and any event or
	// policy change dirties it as usual. It also seeds the route memo as
	// the full table under the empty policy at the construction epoch, so
	// returning to the empty policy (every egress override released)
	// before the topology changes hands it back rather than recomputing
	// it. The caller must hand over a RIB computed over the engine's
	// topology under an empty policy, which is exactly what every engine
	// would compute for itself on first use.
	InitialRIB *bgp.RIB
}

func (c Config) withDefaults() Config {
	if c.StepHours <= 0 {
		c.StepHours = 1
	}
	if c.QueueScaleMs <= 0 {
		c.QueueScaleMs = 0.6
	}
	if c.PerHopMs <= 0 {
		c.PerHopMs = 0.05
	}
	if c.EgressHighUtil <= 0 {
		c.EgressHighUtil = 0.82
	}
	if c.EgressLowUtil <= 0 {
		c.EgressLowUtil = 0.6
	}
	return c
}

// Event is a scheduled change to the simulated world.
type Event struct {
	AtHour float64
	Name   string
	Apply  func(*Engine) error
}

// Engine is the running simulation.
type Engine struct {
	Topo    *topo.Topology
	Policy  *bgp.Policy
	Traffic *traffic.Model
	cfg     Config

	hour  float64
	step  int
	rib   *bgp.RIB
	dirty bool

	// policy6 is the v6 plane's policy (see family.go); its routes are
	// what-if fixed points in whatif.
	policy6 *bgp.Policy

	events  []Event
	fired   int
	eventLg []string

	// Adaptive egress state: per AS, the provider currently de-preffed.
	depreffed map[topo.ASN]topo.ASN
	// egress is the provider plan of the RIB adaptEgress last ran on.
	egress *egressPlan

	// whatif memoizes converged fixed points, filled under topology epoch
	// whatifEpoch: PerfToASWith's and the v6 plane's one-destination RIBs
	// by destination and policy (see whatIfRIB), and the factual full
	// tables by policy (see RIB).
	whatif      map[whatifKey]*bgp.RIB
	whatifEpoch uint64

	// ctx is the run context set by Bind. An Engine is single-run scoped —
	// built, stepped, and discarded inside one Scenario stage — so binding
	// the run's context once at construction is the documented exception to
	// "don't store contexts in structs": it lets cancellation reach routing
	// recomputation without threading a ctx through every Step/RIB/Perf
	// call site (probes and user models query the engine from tight loops).
	ctx context.Context
}

// New creates an engine over the topology with the given noise seed.
func New(t *topo.Topology, seed uint64, cfg Config) *Engine {
	e := &Engine{
		Topo:      t,
		Policy:    bgp.NewPolicy(),
		Traffic:   traffic.NewModel(t, seed),
		cfg:       cfg.withDefaults(),
		dirty:     true,
		depreffed: make(map[topo.ASN]topo.ASN),
		ctx:       context.Background(),
	}
	// A pre-converged RIB (artifact-cache fork) replaces the first compute.
	// The engine's policy starts empty, matching the seed RIB's policy, so
	// this is observationally identical to computing lazily on first use.
	if cfg.InitialRIB != nil {
		e.rib = cfg.InitialRIB
		e.dirty = false
		e.whatif = map[whatifKey]*bgp.RIB{{all: true, policy: e.Policy.Key()}: cfg.InitialRIB}
		e.whatifEpoch = t.Epoch()
	}
	return e
}

// Bind attaches the run context: once ctx is cancelled, routing
// recomputations fail with ctx.Err() and the failure propagates out of
// whatever Step/RIB/Perf call needed them. Returns the engine for chaining.
func (e *Engine) Bind(ctx context.Context) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	return e
}

// Schedule registers an event; events fire in AtHour order during Step, and
// events due at the same hour fire in the order they were scheduled.
func (e *Engine) Schedule(ev Event) {
	e.events = append(e.events, ev)
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].AtHour < e.events[j].AtHour })
}

// Reschedule replaces every event that has not fired with the events of
// evs an engine scheduled with evs from the start would not have fired by
// now (after step 0, those after the current hour), in evs' order. Given a
// schedule whose events fired so far are the ones this engine has fired,
// the engine then runs on exactly as one built with that schedule would:
// the fired events and their order agree, and the pending ones are what
// that engine would hold. A campaign branch forked from a shared trunk
// installs its own joins and flaps this way.
func (e *Engine) Reschedule(evs ...Event) {
	e.events = e.events[:e.fired:e.fired]
	for _, ev := range evs {
		if e.step == 0 || ev.AtHour > e.hour {
			e.events = append(e.events, ev)
		}
	}
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].AtHour < e.events[j].AtHour })
}

// Fork returns an independent copy of the running engine, bound to ctx.
// Stepped under the same events, the engine and its fork stay
// bit-identical; stepping either, scheduling on it, or mutating its
// topology, policies or traffic leaves the other as it was. The fork owns a
// clone of the topology, copies of both policies, of the traffic model and
// of the event queue and log, and the egress controller's state. Converged
// RIBs are immutable, so the route memo's entries — the current RIB among
// them — are re-homed onto the clone (bgp.RIB.Fork): they share their
// tables and start with empty forwarding memos. Fork only reads e, so any
// number of forks may be taken of an engine nobody steps.
func (e *Engine) Fork(ctx context.Context) *Engine {
	t := e.Topo.Clone()
	f := &Engine{
		Topo:      t,
		Policy:    e.Policy.Clone(),
		Traffic:   e.Traffic.Fork(t),
		cfg:       e.cfg,
		hour:      e.hour,
		step:      e.step,
		dirty:     e.dirty,
		events:    slices.Clone(e.events),
		fired:     e.fired,
		eventLg:   slices.Clone(e.eventLg),
		depreffed: maps.Clone(e.depreffed),
	}
	if e.policy6 != nil {
		f.policy6 = e.policy6.Clone()
	}
	// One fork per RIB, so the identities the engine relies on (the
	// egress plan's RIB is the current one) hold in the fork too.
	forks := make(map[*bgp.RIB]*bgp.RIB)
	rehome := func(r *bgp.RIB) *bgp.RIB {
		if r == nil {
			return nil
		}
		if _, ok := forks[r]; !ok {
			forks[r] = r.Fork(t)
		}
		return forks[r]
	}
	// A memo filled under an older epoch would be flushed at its next use
	// anyway; the fork starts without it.
	if e.whatif != nil && e.whatifEpoch == e.Topo.Epoch() {
		f.whatif = make(map[whatifKey]*bgp.RIB, len(e.whatif))
		for k, r := range e.whatif {
			f.whatif[k] = rehome(r)
		}
		f.whatifEpoch = t.Epoch()
	}
	f.rib = rehome(e.rib)
	if e.egress != nil {
		f.egress = &egressPlan{rib: rehome(e.egress.rib), ases: e.egress.ases}
	}
	return f.Bind(ctx)
}

// Hour returns the current simulated UTC hour since start.
func (e *Engine) Hour() float64 { return e.hour }

// RIB returns the current converged routing state. After the state has
// been dirtied it re-keys it — the topology epoch and the v4 policy's
// content — and reads the full table under that key from the route memo
// (see memoized), converging every destination only on a miss. The
// adaptive egress controller flips between a few policies per epoch, so a
// recurring state hands back the very RIB it converged before, forwarding
// memo included.
func (e *Engine) RIB() (*bgp.RIB, error) {
	if !e.dirty {
		return e.rib, nil
	}
	obs.Add(e.ctx, "factual.queries", 1)
	k := whatifKey{all: true, policy: e.Policy.Key()}
	rib, ok := e.memoized(k)
	if !ok {
		obs.Add(e.ctx, "factual.computes", 1)
		var err error
		if rib, err = bgp.Compute(e.ctx, e.cfg.Pool, e.Topo, e.Policy); err != nil {
			return nil, err
		}
		e.whatif[k] = rib
	}
	e.rib, e.dirty = rib, false
	return rib, nil
}

// MarkDirty makes the next use re-read the factual (v4) routes from the
// route memo under the current topology epoch and v4 policy: call it after
// mutating the topology or the v4 policy outside the event system. What-if
// routes — PerfToASWith answers and the v6 plane — need no flag: they are
// re-keyed on every query.
func (e *Engine) MarkDirty() { e.dirty = true }

// Step advances simulated time by StepHours: fires due events, then applies
// adaptive egress reactions to current utilization. It is the simulation
// loop's cancellation point: once the bound context is done, Step returns
// its error and neither the clock nor the event queue moves.
func (e *Engine) Step() error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	e.hour += e.cfg.StepHours
	e.step++
	for e.fired < len(e.events) && e.events[e.fired].AtHour <= e.hour {
		ev := e.events[e.fired]
		e.fired++
		if err := ev.Apply(e); err != nil {
			return fmt.Errorf("engine: event %q at hour %.1f: %w", ev.Name, ev.AtHour, err)
		}
		e.eventLg = append(e.eventLg, ev.Name)
		e.dirty = true
	}
	if e.cfg.AdaptiveEgress {
		if err := e.adaptEgress(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil steps until the clock reaches hour.
func (e *Engine) RunUntil(hour float64) error {
	for e.hour < hour {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Utilization returns a link's utilization now.
func (e *Engine) Utilization(id topo.LinkID) float64 {
	return e.Traffic.Utilization(id, e.hour, e.step)
}

// egressPlan is what adaptEgress reads of one RIB: every AS with at least
// two providers, in topology order. It is a function of the RIB alone, so
// it is built once per RIB rather than once per step.
type egressPlan struct {
	rib  *bgp.RIB
	ases []egressAS
}

// egressAS is one multihomed AS's providers, ascending, and the provider a
// currently uses most — approximated by the provider carrying the most
// chosen routes, the lowest ASN on ties — with its route count.
type egressAS struct {
	asn       topo.ASN
	providers []topo.ASN
	active    topo.ASN
	routes    int
}

// planEgress builds rib's egress plan over t's ASes.
func planEgress(t *topo.Topology, rib *bgp.RIB) *egressPlan {
	plan := &egressPlan{rib: rib}
	ases := t.ASes()
	for _, as := range ases {
		a := as.ASN
		// Collect provider neighbors (a is the customer).
		var providers []topo.ASN
		for n, k := range rib.Rel.Rel[a] {
			if k == topo.RelCustomer {
				providers = append(providers, n)
			}
		}
		if len(providers) < 2 {
			continue
		}
		sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
		use := make(map[topo.ASN]int, len(providers))
		for _, dst := range ases {
			if dst.ASN == a {
				continue
			}
			if r := rib.Lookup(a, dst.ASN); r != nil {
				use[r.NextHop()]++
			}
		}
		p := egressAS{asn: a, providers: providers, routes: -1}
		for _, n := range providers {
			if use[n] > p.routes {
				p.routes, p.active = use[n], n
			}
		}
		plan.ases = append(plan.ases, p)
	}
	return plan
}

// adaptEgress mimics SDN egress controllers: a multihomed AS whose
// currently-preferred provider link is congested shifts preference to its
// least-loaded other provider; the override is released when the link
// drains. Route changes caused here are *endogenous* — caused by congestion
// — which is exactly the confounding structure of the paper's running
// example.
func (e *Engine) adaptEgress() error {
	rib, err := e.RIB()
	if err != nil {
		return err
	}
	if e.egress == nil || e.egress.rib != rib {
		e.egress = planEgress(e.Topo, rib)
	}
	rel := rib.Rel
	changed := false
	for _, plan := range e.egress.ases {
		a, providers := plan.asn, plan.providers
		// Utilization of the best (max across that neighbor's links, since
		// any of them may carry the egress).
		utilTo := func(n topo.ASN) float64 {
			var u float64
			for _, id := range rel.Links[a][n] {
				if v := e.Utilization(id); v > u {
					u = v
				}
			}
			return u
		}
		cur, isDepreffed := e.depreffed[a]
		if isDepreffed {
			// Release when the congested provider drains.
			if utilTo(cur) < e.cfg.EgressLowUtil {
				e.Policy.ClearLocalPref(a, cur)
				delete(e.depreffed, a)
				changed = true
				e.eventLg = append(e.eventLg, fmt.Sprintf("egress-restore AS%d->AS%d", a, cur))
			}
			continue
		}
		if plan.routes <= 0 {
			continue
		}
		active := plan.active
		if utilTo(active) < e.cfg.EgressHighUtil {
			continue
		}
		// Pick the least-loaded alternative with meaningful headroom.
		alt := active
		altU := utilTo(active)
		for _, p := range providers {
			if p == active {
				continue
			}
			if u := utilTo(p); u < altU-0.1 {
				alt, altU = p, u
			}
		}
		if alt == active {
			continue
		}
		e.Policy.SetLocalPref(a, active, bgp.PrefProvider-50)
		e.depreffed[a] = active
		changed = true
		e.eventLg = append(e.eventLg, fmt.Sprintf("egress-shift AS%d away from AS%d", a, active))
	}
	if changed {
		e.dirty = true
	}
	return nil
}
