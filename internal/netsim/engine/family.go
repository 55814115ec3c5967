package engine

import (
	"fmt"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
)

// Dual-stack support: the simulated world is dual-stacked on the same
// physical topology, but each address family has its own routing policy —
// as on the real Internet, where v4 and v6 local preferences and peering
// are configured (and often drift) independently. §4 proposes exactly this
// as an exogenous-variation knob: toggling the family changes the AS path
// without touching network state, so family is usable as an instrument.

// Family is an IP address family.
type Family int

// Supported families.
const (
	V4 Family = 4
	V6 Family = 6
)

// PolicyFamily returns the routing policy for the family; V6 policy is
// created lazily (initially empty, i.e. default preferences).
func (e *Engine) PolicyFamily(f Family) (*bgp.Policy, error) {
	switch f {
	case V4:
		return e.Policy, nil
	case V6:
		if e.policy6 == nil {
			e.policy6 = bgp.NewPolicy()
		}
		return e.policy6, nil
	default:
		return nil, fmt.Errorf("engine: unknown family %d", f)
	}
}

// RIBFamily returns the converged routing state for the family.
func (e *Engine) RIBFamily(f Family) (*bgp.RIB, error) {
	switch f {
	case V4:
		return e.RIB()
	case V6:
		if e.dirty6 || e.rib6 == nil {
			pol, err := e.PolicyFamily(V6)
			if err != nil {
				return nil, err
			}
			rib, err := bgp.Compute(e.ctx, e.cfg.Pool, e.Topo, pol)
			if err != nil {
				return nil, err
			}
			e.rib6 = rib
			e.dirty6 = false
		}
		return e.rib6, nil
	default:
		return nil, fmt.Errorf("engine: unknown family %d", f)
	}
}

// MarkDirtyFamily forces recomputation of one family's routes.
func (e *Engine) MarkDirtyFamily(f Family) {
	if f == V6 {
		e.dirty6 = true
		return
	}
	e.dirty = true
}

// PerfFamily computes current performance between two PoPs over the given
// family's routes. Link-level conditions (utilization, delay) are shared
// between families; only the chosen path differs.
func (e *Engine) PerfFamily(src, dst topo.PoPID, f Family) (*PathPerf, error) {
	rib, err := e.RIBFamily(f)
	if err != nil {
		return nil, err
	}
	return e.perfOn(rib, src, dst)
}
