package bgp

import "sisyphus/internal/netsim/topo"

// Fork returns a copy of the RIB rebound onto t, which must be a topology
// equivalent to the one the RIB was computed over (typically a Clone of
// it). This is what lets one converged fixed point seed many engines.
//
// A converged RIB is immutable — nothing writes its tables after Compute
// or Import returns — so the fork shares the destination tables, every
// route and the relationship map with the original, and copies only the
// policy.
func (r *RIB) Fork(t *topo.Topology) *RIB {
	return &RIB{Topo: t, Rel: r.Rel, best: r.best, policy: r.policy.Clone()}
}

// SizeBytes estimates the RIB's resident size for the artifact store's byte
// bound: a flat per-route cost plus path payloads and map overhead. It is
// an estimate, not an accounting — the LRU only needs relative magnitudes.
func (r *RIB) SizeBytes() int64 {
	const perRoute = 64  // Route struct + map entry
	const perPathHop = 4 // one topo.ASN
	const perDest = 48   // inner map header + outer entry
	var n int64
	for _, m := range r.best {
		n += perDest
		for _, rt := range m {
			n += perRoute
			if rt != nil {
				n += int64(len(rt.Path)) * perPathHop
			}
		}
	}
	return n
}
