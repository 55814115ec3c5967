// Package topo models the simulated Internet's structure: autonomous
// systems, their points of presence (PoPs) in cities, the links between
// PoPs annotated with business relationships, and Internet exchange points
// with their peering LANs. It is the static substrate on which the bgp
// package computes routes and the engine package computes performance.
package topo

import (
	"fmt"
	"sort"

	"sisyphus/internal/netsim/geo"
)

// ASN is an autonomous system number.
type ASN uint32

// ASType categorizes an AS's role; it drives default topology generation
// and which ASes host content or users.
type ASType int

const (
	// Access networks have end users ("eyeball" networks).
	Access ASType = iota
	// Transit networks sell reachability.
	Transit
	// Content networks host services users measure against (CDN, cloud).
	Content
)

func (t ASType) String() string {
	switch t {
	case Access:
		return "access"
	case Transit:
		return "transit"
	case Content:
		return "content"
	default:
		return fmt.Sprintf("ASType(%d)", int(t))
	}
}

// AS is an autonomous system.
type AS struct {
	ASN  ASN
	Name string
	Type ASType
}

// PoPID identifies a point of presence (an AS's router in a city).
type PoPID int

// PoP is an AS's presence in one city.
type PoP struct {
	ID   PoPID
	AS   ASN
	City string
}

// Relationship is the business relationship a link encodes, read from the A
// side: CustomerOf means A buys transit from B.
type Relationship int

const (
	// CustomerOf: A is B's customer (A pays B).
	CustomerOf Relationship = iota
	// PeerWith: settlement-free peering.
	PeerWith
)

func (r Relationship) String() string {
	switch r {
	case CustomerOf:
		return "customer-of"
	case PeerWith:
		return "peer-with"
	default:
		return fmt.Sprintf("Relationship(%d)", int(r))
	}
}

// LinkID identifies a link.
type LinkID int

// Link is a physical/logical adjacency between two PoPs.
type Link struct {
	ID LinkID
	A  PoPID
	B  PoPID
	// Rel is the relationship from A's perspective.
	Rel Relationship
	// CapacityMbps bounds throughput across the link.
	CapacityMbps float64
	// DelayMs is the one-way propagation delay; if zero at Build time it is
	// derived from city geography.
	DelayMs float64
	// BaseUtil is the baseline background utilization in [0, 1).
	BaseUtil float64
	// Up is the operational state (events toggle it).
	Up bool
	// IXP names the exchange whose peering LAN realizes this link, or "".
	IXP string
}

// IXP is an Internet exchange point: a peering LAN in one city.
type IXP struct {
	Name string
	City string
	// Prefix is the dotted /24-style base of the peering LAN, e.g.
	// "196.60.8." — hop IPs on the LAN are Prefix + memberIndex.
	Prefix  string
	Members []ASN
}

// Topology is the full simulated network. Construct with NewBuilder.
//
// A topology has three lifecycle states:
//
//   - mutable: what the builder returns. JoinIXP and SetLinkUp mutate in
//     place; Clone deep-copies.
//   - frozen: after Freeze(). The topology is immutable — mutators panic —
//     and Clone returns a copy-on-write view sharing every structure with
//     the frozen original. This is what the artifact store keeps.
//   - CoW view: a Clone of a frozen topology. Reads hit the shared frozen
//     structures directly; the first mutation promotes the small mutable
//     overlay (links, adjacency, IXP membership) into private copies. The
//     immutable core — AS records, PoPs, their indexes, and the geo
//     registry — is shared by reference forever: nothing mutates it after
//     Build.
type Topology struct {
	Registry *geo.Registry
	// Immutable core: never written after Build, shared by every clone.
	ases     map[ASN]*AS
	asOrder  []ASN
	pops     []PoP
	popIndex map[popKey]PoPID
	// Mutable overlay: IXP membership (JoinIXP grows links/adj/ixps) and
	// link operational state (SetLinkUp). CoW views copy these on first
	// write; the frozen original's copies are never written again.
	links []*Link
	adj   map[PoPID][]LinkID
	ixps  map[string]*IXP
	// ixpMemberIdx[name][asn] is the member's index on the LAN (for IPs).
	ixpMemberIdx map[string]map[ASN]int

	// frozen marks the immutable original the artifact store holds.
	frozen bool
	// cow marks a clone still sharing the mutable overlay with a frozen
	// base; promote() copies the overlay before the first write.
	cow bool
}

// Freeze marks the topology immutable: every subsequent mutation panics,
// and Clone switches from deep copies to pointer-cheap copy-on-write views.
// The artifact store freezes each built world exactly once, before the
// first fork escapes; freezing is irreversible.
func (t *Topology) Freeze() { t.frozen = true }

// mutable panics if the topology is frozen, and otherwise promotes the
// shared overlay so the caller may write. Every mutator calls it first —
// it is the single choke point enforcing the copy-on-write contract.
func (t *Topology) mutable(op string) {
	if t.frozen {
		panic(fmt.Sprintf("topo: %s on frozen topology (mutate a Clone instead)", op))
	}
	t.promote()
}

// promote gives a CoW view private copies of the mutable overlay: links
// (deep, so Up flips stay local), adjacency, and IXP membership. The
// immutable core stays shared. No-op unless the view still shares.
func (t *Topology) promote() {
	if !t.cow {
		return
	}
	links := make([]*Link, len(t.links))
	for i, l := range t.links {
		c := *l
		links[i] = &c
	}
	t.links = links
	adj := make(map[PoPID][]LinkID, len(t.adj))
	for p, ids := range t.adj {
		adj[p] = append([]LinkID(nil), ids...)
	}
	t.adj = adj
	ixps := make(map[string]*IXP, len(t.ixps))
	for name, x := range t.ixps {
		c := *x
		c.Members = append([]ASN(nil), x.Members...)
		ixps[name] = &c
	}
	t.ixps = ixps
	idx := make(map[string]map[ASN]int, len(t.ixpMemberIdx))
	for name, m := range t.ixpMemberIdx {
		cm := make(map[ASN]int, len(m))
		for asn, i := range m {
			cm[asn] = i
		}
		idx[name] = cm
	}
	t.ixpMemberIdx = idx
	t.cow = false
}

// SetLinkUp sets a link's operational state. This is the only supported way
// to flip link state: Link returns shared interior pointers on CoW views,
// so writing Up through them would corrupt the frozen original.
func (t *Topology) SetLinkUp(id LinkID, up bool) {
	t.mutable("SetLinkUp")
	t.links[int(id)].Up = up
}

// SizeBytes estimates the topology's resident size for the artifact store's
// byte bound: flat per-AS/PoP/link costs plus IXP membership payloads. An
// estimate, not an accounting — the LRU only needs relative magnitudes.
func (t *Topology) SizeBytes() int64 {
	const perAS = 64   // AS struct + map entry + name payload
	const perPoP = 64  // PoP struct + popIndex entry + city payload
	const perLink = 96 // Link struct + adjacency entries
	const perIXP = 96  // IXP struct + map entries
	const perMember = 24
	n := int64(len(t.ases))*perAS + int64(len(t.pops))*perPoP + int64(len(t.links))*perLink
	for _, x := range t.ixps {
		n += perIXP + int64(len(x.Members))*perMember
	}
	return n
}

type popKey struct {
	asn  ASN
	city string
}

// ASes returns all AS records in insertion order.
func (t *Topology) ASes() []*AS {
	out := make([]*AS, len(t.asOrder))
	for i, a := range t.asOrder {
		out[i] = t.ases[a]
	}
	return out
}

// AS returns the AS record for asn.
func (t *Topology) AS(asn ASN) (*AS, error) {
	a, ok := t.ases[asn]
	if !ok {
		return nil, fmt.Errorf("topo: unknown AS%d", asn)
	}
	return a, nil
}

// PoP returns the PoP record for id.
func (t *Topology) PoP(id PoPID) PoP { return t.pops[int(id)] }

// FindPoP returns the PoP of asn in city.
func (t *Topology) FindPoP(asn ASN, city string) (PoPID, error) {
	id, ok := t.popIndex[popKey{asn, city}]
	if !ok {
		return 0, fmt.Errorf("topo: AS%d has no PoP in %s", asn, city)
	}
	return id, nil
}

// PoPsOf returns the PoP IDs of an AS, in creation order.
func (t *Topology) PoPsOf(asn ASN) []PoPID {
	var out []PoPID
	for _, p := range t.pops {
		if p.AS == asn {
			out = append(out, p.ID)
		}
	}
	return out
}

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) *Link { return t.links[int(id)] }

// IXPs returns all exchange points sorted by name.
func (t *Topology) IXPs() []*IXP {
	names := make([]string, 0, len(t.ixps))
	for n := range t.ixps {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*IXP, len(names))
	for i, n := range names {
		out[i] = t.ixps[n]
	}
	return out
}

// IXP returns the named exchange.
func (t *Topology) IXP(name string) (*IXP, error) {
	x, ok := t.ixps[name]
	if !ok {
		return nil, fmt.Errorf("topo: unknown IXP %q", name)
	}
	return x, nil
}

// ASRelationships summarizes AS-level adjacency: for each ordered AS pair
// with at least one link, the relationship and the connecting link IDs.
type ASRelationships struct {
	// Rel[a][b] is a's relationship toward b.
	Rel map[ASN]map[ASN]RelKind
	// Links[a][b] lists links realizing the adjacency (undirected, shared).
	Links map[ASN]map[ASN][]LinkID
}

// RelKind is the AS-level relationship from the first AS's perspective.
type RelKind int

const (
	// RelCustomer: first AS is the customer (buys from second).
	RelCustomer RelKind = iota
	// RelProvider: first AS is the provider (sells to second).
	RelProvider
	// RelPeer: settlement-free peers.
	RelPeer
)

func (k RelKind) String() string {
	switch k {
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	case RelPeer:
		return "peer"
	default:
		return fmt.Sprintf("RelKind(%d)", int(k))
	}
}

// Relationships derives the AS-level relationship map from links that are
// currently up. Conflicting relationships between the same AS pair are an
// error (a pair must be consistently customer/provider or peer).
func (t *Topology) Relationships() (*ASRelationships, error) {
	out := &ASRelationships{
		Rel:   make(map[ASN]map[ASN]RelKind),
		Links: make(map[ASN]map[ASN][]LinkID),
	}
	set := func(a, b ASN, k RelKind, id LinkID) error {
		if out.Rel[a] == nil {
			out.Rel[a] = make(map[ASN]RelKind)
			out.Links[a] = make(map[ASN][]LinkID)
		}
		if prev, ok := out.Rel[a][b]; ok && prev != k {
			return fmt.Errorf("topo: conflicting relationships between AS%d and AS%d: %v vs %v", a, b, prev, k)
		}
		out.Rel[a][b] = k
		out.Links[a][b] = append(out.Links[a][b], id)
		return nil
	}
	for _, l := range t.links {
		if !l.Up {
			continue
		}
		a := t.pops[int(l.A)].AS
		b := t.pops[int(l.B)].AS
		if a == b {
			continue // intra-AS link: invisible at the BGP level
		}
		var ka, kb RelKind
		switch l.Rel {
		case CustomerOf:
			ka, kb = RelCustomer, RelProvider
		case PeerWith:
			ka, kb = RelPeer, RelPeer
		default:
			return nil, fmt.Errorf("topo: link %d has unknown relationship %v", l.ID, l.Rel)
		}
		if err := set(a, b, ka, l.ID); err != nil {
			return nil, err
		}
		if err := set(b, a, kb, l.ID); err != nil {
			return nil, err
		}
	}
	return out, nil
}
