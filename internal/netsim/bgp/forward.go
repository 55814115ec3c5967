package bgp

import (
	"fmt"

	"sisyphus/internal/netsim/geo"
	"sisyphus/internal/netsim/topo"
)

// Hop is one data-plane step of a forwarded path.
type Hop struct {
	From, To topo.PoPID
	// Link is the inter-AS (or IXP) link crossed, or nil for an intra-AS
	// segment between two PoPs of the same AS.
	Link *topo.Link
	// DelayMs is the propagation delay of this hop (queueing is added by
	// the engine from link utilization).
	DelayMs float64
}

// Path is a fully expanded forwarding path.
type Path struct {
	Src, Dst topo.PoPID
	ASPath   []topo.ASN
	Hops     []Hop
}

// PropagationMs sums the hops' propagation delays (one way).
func (p *Path) PropagationMs() float64 {
	var s float64
	for _, h := range p.Hops {
		s += h.DelayMs
	}
	return s
}

// CrossesLink reports whether the path uses the given link.
func (p *Path) CrossesLink(id topo.LinkID) bool {
	for _, h := range p.Hops {
		if h.Link != nil && h.Link.ID == id {
			return true
		}
	}
	return false
}

type fwdAnswer struct {
	path *Path
	err  error
}

type nearKey struct {
	src topo.PoPID
	asn topo.ASN
}

type nearAnswer struct {
	pop topo.PoPID
	err error
}

// syncMemo makes the forwarding memo valid under the topology's current
// epoch: it allocates the maps on first use and flushes them when link
// state has changed since they were filled.
func (r *RIB) syncMemo() {
	epoch := r.Topo.Epoch()
	switch {
	case r.paths == nil:
		r.paths = make(map[[2]topo.PoPID]fwdAnswer)
		r.near = make(map[nearKey]nearAnswer)
	case r.memoEpoch != epoch:
		clear(r.paths)
		clear(r.near)
	}
	r.memoEpoch = epoch
}

// Forward expands the RIB route from a source PoP to a destination PoP into
// PoP-level hops. At each AS-level step it picks the available link between
// the two ASes that minimizes intra-AS detour plus link delay (hot-potato
// flavoured but latency-aware). Inside an AS, PoPs are assumed to form a
// full mesh at geographic delay.
//
// Answers are memoized per topology epoch (see RIB): the returned Path is
// shared with every later caller and must not be modified.
func (r *RIB) Forward(src, dst topo.PoPID) (*Path, error) {
	r.syncMemo()
	k := [2]topo.PoPID{src, dst}
	if a, ok := r.paths[k]; ok {
		return a.path, a.err
	}
	p, err := r.forward(src, dst)
	r.paths[k] = fwdAnswer{p, err}
	return p, err
}

// forward is Forward without the memo.
func (r *RIB) forward(src, dst topo.PoPID) (*Path, error) {
	t := r.Topo
	srcPoP := t.PoP(src)
	dstPoP := t.PoP(dst)
	route := r.Lookup(srcPoP.AS, dstPoP.AS)
	if srcPoP.AS != dstPoP.AS && route == nil {
		return nil, fmt.Errorf("bgp: AS%d cannot reach AS%d", srcPoP.AS, dstPoP.AS)
	}

	path := &Path{Src: src, Dst: dst}
	cur := src
	asSeq := []topo.ASN{srcPoP.AS}
	if srcPoP.AS != dstPoP.AS {
		for _, asn := range route.Path {
			asSeq = append(asSeq, asn)
			if asn == dstPoP.AS {
				// Everything after the first occurrence of the origin is
				// poison padding from the announcement sandwich; the data
				// plane stops here.
				break
			}
		}
	}
	path.ASPath = asSeq

	for i := 0; i+1 < len(asSeq); i++ {
		a, b := asSeq[i], asSeq[i+1]
		ids := r.Rel.Links[a][b]
		if len(ids) == 0 {
			return nil, fmt.Errorf("bgp: no usable link between AS%d and AS%d", a, b)
		}
		// Choose the link minimizing (intra-AS reposition + link delay).
		bestCost := -1.0
		var bestLink *topo.Link
		var bestNear, bestFar topo.PoPID
		for _, id := range ids {
			l := t.Link(id)
			if !l.Up {
				continue
			}
			near, far := l.A, l.B
			if t.PoP(near).AS != a {
				near, far = far, near
			}
			cost := r.intraDelay(cur, near) + l.DelayMs
			if bestCost < 0 || cost < bestCost {
				bestCost, bestLink, bestNear, bestFar = cost, l, near, far
			}
		}
		if bestLink == nil {
			return nil, fmt.Errorf("bgp: all links between AS%d and AS%d are down", a, b)
		}
		if bestNear != cur {
			path.Hops = append(path.Hops, Hop{From: cur, To: bestNear, DelayMs: r.intraDelay(cur, bestNear)})
		}
		path.Hops = append(path.Hops, Hop{From: bestNear, To: bestFar, Link: bestLink, DelayMs: bestLink.DelayMs})
		cur = bestFar
	}
	if cur != dst {
		if t.PoP(cur).AS != dstPoP.AS {
			return nil, fmt.Errorf("bgp: forwarding ended in AS%d, want AS%d", t.PoP(cur).AS, dstPoP.AS)
		}
		path.Hops = append(path.Hops, Hop{From: cur, To: dst, DelayMs: r.intraDelay(cur, dst)})
	}
	return path, nil
}

// intraDelay is the one-way delay between two PoPs of the same AS: direct
// geographic propagation plus a small switching overhead. Same PoP is free.
func (r *RIB) intraDelay(a, b topo.PoPID) float64 {
	if a == b {
		return 0
	}
	ca := r.Topo.Registry.MustGet(r.Topo.PoP(a).City)
	cb := r.Topo.Registry.MustGet(r.Topo.PoP(b).City)
	d := geo.PropagationMs(ca, cb)
	if d < 0.2 {
		d = 0.2
	}
	return d + 0.1
}

// NearestPoP returns the PoP of asn with the smallest forwarding
// propagation delay from the source PoP — how anycast/CDN edge selection is
// approximated when a measurement targets "the content AS" rather than a
// specific PoP. Answers are memoized like Forward's.
func (r *RIB) NearestPoP(src topo.PoPID, asn topo.ASN) (topo.PoPID, error) {
	r.syncMemo()
	k := nearKey{src, asn}
	if a, ok := r.near[k]; ok {
		return a.pop, a.err
	}
	id, err := r.nearestPoP(src, asn)
	r.near[k] = nearAnswer{id, err}
	return id, err
}

// nearestPoP is NearestPoP without its own memo entry; the candidate paths
// still go through Forward.
func (r *RIB) nearestPoP(src topo.PoPID, asn topo.ASN) (topo.PoPID, error) {
	var best topo.PoPID
	bestDelay := -1.0
	for _, id := range r.Topo.PoPsOf(asn) {
		p, err := r.Forward(src, id)
		if err != nil {
			continue
		}
		d := p.PropagationMs()
		if bestDelay < 0 || d < bestDelay {
			bestDelay, best = d, id
		}
	}
	if bestDelay < 0 {
		return 0, fmt.Errorf("bgp: no reachable PoP of AS%d from PoP %d", asn, src)
	}
	return best, nil
}
