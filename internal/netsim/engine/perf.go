package engine

import (
	"fmt"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/obs"
)

// PathPerf is the engine's ground-truth performance along one path at one
// instant (no measurement noise — probes add that). It is a value: the
// Perf queries return it by value and allocate nothing, and the Path it
// carries is the RIB's own shared, read-only path.
type PathPerf struct {
	Path *bgp.Path
	// RTTms is the round-trip time: 2× (propagation + queueing + per-hop).
	RTTms float64
	// LossRate is the end-to-end loss probability.
	LossRate float64
	// ThroughputMbps is the bottleneck available bandwidth.
	ThroughputMbps float64
	// MaxUtil is the highest link utilization on the path (the congestion
	// covariate an omniscient observer would adjust for).
	MaxUtil float64
	// BottleneckLink is the link with the least available capacity.
	BottleneckLink topo.LinkID
}

// Perf computes current performance between two PoPs.
func (e *Engine) Perf(src, dst topo.PoPID) (PathPerf, error) {
	rib, err := e.RIB()
	if err != nil {
		return PathPerf{}, err
	}
	return e.PerfOn(rib, src, dst)
}

// PerfToAS computes performance from a PoP to the nearest PoP of an AS
// (anycast-style server selection).
func (e *Engine) PerfToAS(src topo.PoPID, asn topo.ASN) (PathPerf, error) {
	rib, err := e.RIB()
	if err != nil {
		return PathPerf{}, err
	}
	return e.perfToASOn(rib, src, asn)
}

// PerfToASWith answers a what-if routing question: the PathPerf PerfToAS
// would return right now if edit were applied to the v4 policy. edit runs
// on a clone of the policy, and only asn is converged under it — forwarding
// from src to asn reads nothing but routes toward asn, so one fixed point
// answers the question exactly. The factual state is left alone: the
// engine's policies, RIB and dirty flag are untouched, so the next factual
// query pays for no recompute.
//
// The fixed point is memoized (see whatIfRIB), so asking the same question
// every hour converges it once; the utilization-dependent performance along
// the path is still read at the current hour.
func (e *Engine) PerfToASWith(src topo.PoPID, asn topo.ASN, edit func(*bgp.Policy)) (PathPerf, error) {
	pol := e.Policy.Clone()
	edit(pol)
	rib, err := e.whatIfRIB(asn, pol)
	if err != nil {
		return PathPerf{}, err
	}
	return e.perfToASOn(rib, src, asn)
}

// maxWhatIfRIBs bounds the route memo; reaching it empties the memo.
// Per topology epoch the experiments ask two or three distinct what-if
// questions, plus one per destination the v6 plane is measured toward, and
// the adaptive egress controller visits a handful of factual policies.
const maxWhatIfRIBs = 64

// whatifKey identifies one memoized fixed point: the policy's content
// (bgp.Policy.Key) and either one destination or, for the factual table,
// all of them.
type whatifKey struct {
	asn    topo.ASN
	all    bool
	policy string
}

// memoized looks k up in the route memo, first emptying the memo if the
// topology epoch has moved since it was filled or it is full. A fixed point
// is a function of the destinations, the policy and the topology's link
// state, so the memo is keyed on the first two and flushed when the third
// moves. It is keyed on the policy's content rather than on a version
// counter because events, experiments and the family knob write the
// exported policy maps directly. Callers store what they converge on a
// miss in e.whatif; failed computations are not memoized.
func (e *Engine) memoized(k whatifKey) (*bgp.RIB, bool) {
	epoch := e.Topo.Epoch()
	if e.whatif == nil || e.whatifEpoch != epoch || len(e.whatif) >= maxWhatIfRIBs {
		e.whatif = make(map[whatifKey]*bgp.RIB)
		e.whatifEpoch = epoch
	}
	rib, ok := e.whatif[k]
	return rib, ok
}

// whatIfRIB returns the one-destination RIB toward asn under pol,
// converging it only on a memo miss (see memoized). It serves
// PerfToASWith's edited policies and the v6 plane's policy (RoutesToward)
// alike.
func (e *Engine) whatIfRIB(asn topo.ASN, pol *bgp.Policy) (*bgp.RIB, error) {
	obs.Add(e.ctx, "whatif.queries", 1)
	k := whatifKey{asn: asn, policy: pol.Key()}
	if rib, ok := e.memoized(k); ok {
		return rib, nil
	}
	obs.Add(e.ctx, "whatif.computes", 1)
	rib, err := bgp.ComputeDests(e.ctx, e.cfg.Pool, e.Topo, pol, []topo.ASN{asn})
	if err != nil {
		return nil, err
	}
	e.whatif[k] = rib
	return rib, nil
}

// perfToASOn is PerfToAS over a given RIB.
func (e *Engine) perfToASOn(rib *bgp.RIB, src topo.PoPID, asn topo.ASN) (PathPerf, error) {
	dst, err := rib.NearestPoP(src, asn)
	if err != nil {
		return PathPerf{}, err
	}
	return e.PerfOn(rib, src, dst)
}

// PerfOn computes current performance between two PoPs over the given
// routes: the engine's RIB, or RoutesToward's routes toward dst's AS.
func (e *Engine) PerfOn(rib *bgp.RIB, src, dst topo.PoPID) (PathPerf, error) {
	p, err := rib.Forward(src, dst)
	if err != nil {
		return PathPerf{}, err
	}
	return e.perfAlong(p), nil
}

func (e *Engine) perfAlong(p *bgp.Path) PathPerf {
	out := PathPerf{Path: p, ThroughputMbps: 1e9, BottleneckLink: -1}
	oneWay := 0.0
	survive := 1.0
	for _, h := range p.Hops {
		oneWay += h.DelayMs + e.cfg.PerHopMs
		if h.Link == nil {
			continue
		}
		u := e.Utilization(h.Link.ID)
		oneWay += traffic.QueueingDelayMs(u, e.cfg.QueueScaleMs)
		survive *= 1 - traffic.LossRate(u)
		if u > out.MaxUtil {
			out.MaxUtil = u
		}
		avail := h.Link.CapacityMbps * (1 - u)
		if avail < out.ThroughputMbps {
			out.ThroughputMbps = avail
			out.BottleneckLink = h.Link.ID
		}
	}
	out.RTTms = 2 * oneWay
	out.LossRate = 1 - survive
	if out.BottleneckLink == -1 {
		out.ThroughputMbps = 0 // degenerate zero-hop path
	}
	return out
}

// Standard engine events.

// EvJoinIXP returns an event that makes asn join the named IXP and shifts
// shiftUtil worth of load off its provider links (traffic moving to the
// new peering).
func EvJoinIXP(atHour float64, ixp string, asn topo.ASN, shiftUtil float64) Event {
	return Event{
		AtHour: atHour,
		Name:   fmt.Sprintf("join-ixp %s AS%d", ixp, asn),
		Apply: func(e *Engine) error {
			_, err := e.Topo.JoinIXP(ixp, asn)
			if err != nil {
				return err
			}
			if shiftUtil > 0 {
				rel, err := e.Topo.Relationships()
				if err != nil {
					return err
				}
				for n, k := range rel.Rel[asn] {
					if k != topo.RelCustomer {
						continue // only provider links drain
					}
					for _, id := range rel.Links[asn][n] {
						e.Traffic.AddLoadShift(id, atHour, -shiftUtil)
					}
				}
			}
			return nil
		},
	}
}

// EvLinkDown returns an event that fails a link.
func EvLinkDown(atHour float64, id topo.LinkID) Event {
	return Event{
		AtHour: atHour,
		Name:   fmt.Sprintf("link-down %d", id),
		Apply: func(e *Engine) error {
			e.Topo.SetLinkUp(id, false)
			return nil
		},
	}
}

// EvLinkUp returns an event that restores a link.
func EvLinkUp(atHour float64, id topo.LinkID) Event {
	return Event{
		AtHour: atHour,
		Name:   fmt.Sprintf("link-up %d", id),
		Apply: func(e *Engine) error {
			e.Topo.SetLinkUp(id, true)
			return nil
		},
	}
}

// EvMaintenance schedules an administrative link outage for a window — the
// paper's example of a plausibly exogenous natural experiment. It returns
// the pair of events (start, end).
func EvMaintenance(startHour, hours float64, id topo.LinkID) (Event, Event) {
	start := Event{
		AtHour: startHour,
		Name:   fmt.Sprintf("maintenance-start %d", id),
		Apply: func(e *Engine) error {
			e.Policy.DenyLink[id] = true
			return nil
		},
	}
	end := Event{
		AtHour: startHour + hours,
		Name:   fmt.Sprintf("maintenance-end %d", id),
		Apply: func(e *Engine) error {
			delete(e.Policy.DenyLink, id)
			return nil
		},
	}
	return start, end
}

// EvSetLocalPref returns an event applying a local-preference override —
// the paper's example of an *invalid* instrument when the change also moves
// load.
func EvSetLocalPref(atHour float64, a, n topo.ASN, pref int) Event {
	return Event{
		AtHour: atHour,
		Name:   fmt.Sprintf("local-pref AS%d->AS%d=%d", a, n, pref),
		Apply: func(e *Engine) error {
			e.Policy.SetLocalPref(a, n, pref)
			return nil
		},
	}
}
