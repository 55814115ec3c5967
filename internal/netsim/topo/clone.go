package topo

// Clone returns an independent copy of the topology: a caller may join
// IXPs, flap links, or otherwise mutate the copy without perturbing the
// original.
//
// On a frozen topology (the artifact store's case) this is pointer-cheap:
// the clone shares every structure with the frozen original and copies the
// mutable overlay lazily, on its first mutation. An unmutated clone
// therefore costs one struct allocation, which is what makes artifact
// cache hits nearly free.
//
// On a mutable topology it falls back to the eager deep copy: the original
// may still change, so sharing would not be safe.
func (t *Topology) Clone() *Topology {
	if t.frozen {
		return &Topology{
			Registry:     t.Registry,
			ases:         t.ases,
			asOrder:      t.asOrder,
			pops:         t.pops,
			popIndex:     t.popIndex,
			addrs:        t.addrs,
			links:        t.links,
			adj:          t.adj,
			ixps:         t.ixps,
			ixpMemberIdx: t.ixpMemberIdx,
			cow:          true,
		}
	}
	out := &Topology{
		Registry:     t.Registry,
		ases:         t.ases,    // immutable core: shared even on deep copies
		asOrder:      t.asOrder, // (nothing writes these after Build)
		pops:         t.pops,
		popIndex:     t.popIndex,
		addrs:        t.addrs,
		links:        make([]*Link, len(t.links)),
		adj:          make(map[PoPID][]LinkID, len(t.adj)),
		ixps:         make(map[string]*IXP, len(t.ixps)),
		ixpMemberIdx: make(map[string]map[ASN]int, len(t.ixpMemberIdx)),
	}
	for i, l := range t.links {
		c := *l
		out.links[i] = &c
	}
	for p, ids := range t.adj {
		out.adj[p] = append([]LinkID(nil), ids...)
	}
	for name, x := range t.ixps {
		c := *x
		c.Members = append([]ASN(nil), x.Members...)
		out.ixps[name] = &c
	}
	for name, m := range t.ixpMemberIdx {
		cm := make(map[ASN]int, len(m))
		for asn, i := range m {
			cm[asn] = i
		}
		out.ixpMemberIdx[name] = cm
	}
	return out
}
