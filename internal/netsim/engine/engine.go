// Package engine drives the simulated Internet through time. It owns the
// clock, fires scheduled events (IXP joins, link failures, maintenance
// windows, policy changes), recomputes routing when the control plane is
// dirtied, applies load-adaptive egress switching (the EdgeFabric/Espresso
// behaviour that makes congestion a *cause* of route changes), and answers
// performance queries (RTT, loss, throughput) along routed paths.
//
// Determinism contract: an Engine is fully determined by (topology
// constructor, seed, event list). Two engines built the same way but with
// different event lists share all noise for the components they have in
// common, which is what makes ground-truth counterfactuals ("replay the
// same six weeks without the IXP join") meaningful.
package engine

import (
	"context"
	"fmt"
	"sort"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
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
	// policy change dirties it as usual. The caller must hand over a RIB
	// computed over the engine's topology under an empty policy, which is
	// exactly what every engine would compute for itself on first use.
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

	// Dual-stack state (see family.go): the v6 policy and RIB. Events and
	// adaptive egress operate on the v4 plane; the v6 plane changes only
	// through PolicyFamily — the exogenous knob.
	policy6 *bgp.Policy
	rib6    *bgp.RIB
	dirty6  bool

	events  []Event
	fired   int
	eventLg []string

	// Adaptive egress state: per AS, the provider currently de-preffed.
	depreffed map[topo.ASN]topo.ASN

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

// Schedule registers an event; events fire in AtHour order during Step.
func (e *Engine) Schedule(ev Event) {
	e.events = append(e.events, ev)
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].AtHour < e.events[j].AtHour })
}

// Hour returns the current simulated UTC hour since start.
func (e *Engine) Hour() float64 { return e.hour }

// RIB returns the current converged routing state, recomputing if needed.
func (e *Engine) RIB() (*bgp.RIB, error) {
	if e.dirty || e.rib == nil {
		rib, err := bgp.Compute(e.ctx, e.cfg.Pool, e.Topo, e.Policy)
		if err != nil {
			return nil, err
		}
		e.rib = rib
		e.dirty = false
	}
	return e.rib, nil
}

// MarkDirty forces a routing recomputation on next use (call after mutating
// the topology or policy outside the event system). Topology changes affect
// both address families; after a v4-only policy edit, MarkDirtyFamily(V4)
// keeps the v6 routes. A what-if question ("what would this path be under
// that policy?") needs neither: PerfToASWith answers it without touching
// the factual policy or routes.
func (e *Engine) MarkDirty() { e.dirty = true; e.dirty6 = true }

// Step advances simulated time by StepHours: fires due events, then applies
// adaptive egress reactions to current utilization.
func (e *Engine) Step() error {
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
		e.dirty6 = true // events may mutate the shared topology
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
	rel := rib.Rel
	changed := false
	for _, as := range e.Topo.ASes() {
		a := as.ASN
		// Collect provider neighbors (a is the customer).
		var providers []topo.ASN
		for n, k := range rel.Rel[a] {
			if k == topo.RelCustomer {
				providers = append(providers, n)
			}
		}
		if len(providers) < 2 {
			continue
		}
		sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
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
		// Which provider does a currently use most? Approximate with the
		// provider carrying the most chosen routes.
		use := make(map[topo.ASN]int)
		for _, dst := range e.Topo.ASes() {
			if dst.ASN == a {
				continue
			}
			if r := rib.Lookup(a, dst.ASN); r != nil {
				for _, p := range providers {
					if r.NextHop() == p {
						use[p]++
					}
				}
			}
		}
		var active topo.ASN
		best := -1
		for _, p := range providers {
			if use[p] > best {
				best, active = use[p], p
			}
		}
		if best <= 0 {
			continue
		}
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
