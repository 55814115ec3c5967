package topo

// Clone returns an independent copy of the topology: a caller may join
// IXPs, flap links, or otherwise mutate the copy without perturbing the
// original.
//
// The clone is a copy-on-write view sharing every structure with t; its
// first mutation promotes the mutable overlay into private copies. On a
// frozen topology (the artifact store's case) the view stays shared until
// then, so an unmutated clone costs one struct allocation, which is what
// makes artifact cache hits nearly free. On a mutable topology the original
// may still change, so the clone promotes at once.
func (t *Topology) Clone() *Topology {
	c := &Topology{
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
	if !t.frozen {
		c.promote()
	}
	return c
}
