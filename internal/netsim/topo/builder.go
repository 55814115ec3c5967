package topo

import (
	"fmt"

	"sisyphus/internal/netsim/geo"
)

// Builder assembles a Topology incrementally. All methods panic-free:
// errors accumulate and Build returns the first one, so scenario code can
// chain calls without per-call error plumbing.
type Builder struct {
	t   *Topology
	err error
}

// NewBuilder returns a builder using the given city registry (nil selects
// geo.DefaultRegistry).
func NewBuilder(reg *geo.Registry) *Builder {
	if reg == nil {
		reg = geo.DefaultRegistry()
	}
	return &Builder{t: &Topology{
		Registry:     reg,
		ases:         make(map[ASN]*AS),
		popIndex:     make(map[popKey]PoPID),
		adj:          make(map[PoPID][]LinkID),
		ixps:         make(map[string]*IXP),
		ixpMemberIdx: make(map[string]map[ASN]int),
	}}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// AddAS registers an AS with PoPs in the named cities.
func (b *Builder) AddAS(asn ASN, name string, typ ASType, cities ...string) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.t.ases[asn]; ok {
		b.fail("topo: duplicate AS%d", asn)
		return b
	}
	if len(cities) == 0 {
		b.fail("topo: AS%d needs at least one PoP city", asn)
		return b
	}
	b.t.ases[asn] = &AS{ASN: asn, Name: name, Type: typ}
	b.t.asOrder = append(b.t.asOrder, asn)
	for _, city := range cities {
		if _, err := b.t.Registry.Get(city); err != nil {
			b.fail("topo: AS%d: %v", asn, err)
			return b
		}
		key := popKey{asn, city}
		if _, ok := b.t.popIndex[key]; ok {
			b.fail("topo: AS%d already has a PoP in %s", asn, city)
			return b
		}
		id := PoPID(len(b.t.pops))
		b.t.pops = append(b.t.pops, PoP{ID: id, AS: asn, City: city})
		b.t.popIndex[key] = id
	}
	return b
}

// LinkOpt tweaks a link at creation.
type LinkOpt func(*Link)

// WithCapacity sets link capacity in Mbps.
func WithCapacity(mbps float64) LinkOpt {
	return func(l *Link) { l.CapacityMbps = mbps }
}

// WithBaseUtil sets the baseline background utilization in [0, 1).
func WithBaseUtil(u float64) LinkOpt {
	return func(l *Link) { l.BaseUtil = u }
}

// Connect links two PoPs, identified by (ASN, city) pairs, with the given
// relationship read from the first side. Delay defaults to the geographic
// propagation between the two cities; capacity defaults to 10 Gbps.
func (b *Builder) Connect(aASN ASN, aCity string, rel Relationship, bASN ASN, bCity string, opts ...LinkOpt) *Builder {
	if b.err != nil {
		return b
	}
	pa, ok := b.t.popIndex[popKey{aASN, aCity}]
	if !ok {
		b.fail("topo: connect: AS%d has no PoP in %s", aASN, aCity)
		return b
	}
	pb, ok := b.t.popIndex[popKey{bASN, bCity}]
	if !ok {
		b.fail("topo: connect: AS%d has no PoP in %s", bASN, bCity)
		return b
	}
	l := &Link{
		ID: LinkID(len(b.t.links)), A: pa, B: pb, Rel: rel,
		CapacityMbps: 10000, Up: true,
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.DelayMs == 0 {
		ca := b.t.Registry.MustGet(aCity)
		cb := b.t.Registry.MustGet(bCity)
		l.DelayMs = geo.PropagationMs(ca, cb)
		if l.DelayMs < 0.2 {
			l.DelayMs = 0.2 // same-city metro link still has a floor
		}
	}
	b.t.links = append(b.t.links, l)
	b.t.adj[pa] = append(b.t.adj[pa], l.ID)
	b.t.adj[pb] = append(b.t.adj[pb], l.ID)
	return b
}

// AddIXP declares an exchange point in a city with the given peering-LAN
// prefix (e.g. "196.60.8.").
func (b *Builder) AddIXP(name, city, prefix string) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.t.ixps[name]; ok {
		b.fail("topo: duplicate IXP %q", name)
		return b
	}
	if _, err := b.t.Registry.Get(city); err != nil {
		b.fail("topo: IXP %s: %v", name, err)
		return b
	}
	b.t.ixps[name] = &IXP{Name: name, City: city, Prefix: prefix}
	b.t.ixpMemberIdx[name] = make(map[ASN]int)
	return b
}

// Build validates and returns the topology.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.t.ases) == 0 {
		return nil, fmt.Errorf("topo: empty topology")
	}
	// Relationship consistency check.
	if _, err := b.t.Relationships(); err != nil {
		return nil, err
	}
	b.t.addrs = popAddrs(b.t.pops)
	return b.t, nil
}

// JoinIXP connects an AS (which must have a PoP in the IXP's city) to the
// exchange: it becomes a LAN member and gains peer links to every existing
// member it has no transit link with. A member it already buys transit
// from or sells transit to, over a link up or down, keeps that
// relationship and gets no LAN link: the pair cannot be both transit and
// peers (Relationships rejects it). A member it privately peers with still
// gets its LAN link. Returns the new link IDs. This is the E1 "treatment" —
// the paper's intervention is exactly this call happening
// mid-measurement-campaign.
func (t *Topology) JoinIXP(name string, asn ASN) ([]LinkID, error) {
	t.mutable("JoinIXP") // CoW promotion must precede the IXP lookup below
	x, err := t.IXP(name)
	if err != nil {
		return nil, err
	}
	pop, err := t.FindPoP(asn, x.City)
	if err != nil {
		return nil, fmt.Errorf("topo: AS%d cannot join %s: %w", asn, name, err)
	}
	if _, ok := t.ixpMemberIdx[name][asn]; ok {
		return nil, fmt.Errorf("topo: AS%d is already a member of %s", asn, name)
	}
	transit := make(map[ASN]bool)
	for _, p := range t.PoPsOf(asn) {
		for _, id := range t.adj[p] {
			if l := t.links[id]; l.Rel == CustomerOf {
				transit[t.pops[l.A].AS] = true
				transit[t.pops[l.B].AS] = true
			}
		}
	}
	var created []LinkID
	for _, member := range x.Members {
		if transit[member] {
			continue
		}
		mpop, err := t.FindPoP(member, x.City)
		if err != nil {
			return nil, fmt.Errorf("topo: member AS%d lost its %s PoP: %w", member, x.City, err)
		}
		l := &Link{
			ID: LinkID(len(t.links)), A: pop, B: mpop, Rel: PeerWith,
			CapacityMbps: 100000, DelayMs: 0.25, BaseUtil: 0.25, Up: true, IXP: name,
		}
		t.links = append(t.links, l)
		t.adj[pop] = append(t.adj[pop], l.ID)
		t.adj[mpop] = append(t.adj[mpop], l.ID)
		created = append(created, l.ID)
	}
	t.ixpMemberIdx[name][asn] = len(x.Members)
	x.Members = append(x.Members, asn)
	return created, nil
}
