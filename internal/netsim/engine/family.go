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
//
// The v4 plane is the factual one: events and adaptive egress edit its
// policy, and its routes are the engine's RIB. The v6 plane changes only
// through PolicyFamily — the exogenous knob — and is a standing what-if:
// its routes toward an AS are the fixed point under the v6 policy, memoized
// like any PerfToASWith question (see whatIfRIB).

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

// RoutesToward returns the family's converged routes toward asn. For V4
// that is the factual RIB. For V6 it is the one-destination fixed point
// under the v6 policy, keyed on that policy's content and the topology
// epoch, so a v4 edit never recomputes it and a v6 edit needs no dirty
// flag. Link-level conditions (utilization, delay) are shared between
// families; only the chosen path differs, so PerfOn over these routes
// measures the family's path.
func (e *Engine) RoutesToward(asn topo.ASN, f Family) (*bgp.RIB, error) {
	if f == V4 {
		return e.RIB()
	}
	pol, err := e.PolicyFamily(f)
	if err != nil {
		return nil, err
	}
	return e.whatIfRIB(asn, pol)
}
