package topo

import (
	"fmt"
	"math"

	"sisyphus/internal/netsim/geo"
)

// Export is the serialized form of a Topology: every slice is in canonical
// order (cities by name, ASes and PoPs and links in creation order, IXPs by
// name) and nothing is a map, so encoding the struct with a deterministic
// encoder yields identical bytes for identical topologies. The derived
// indexes (popIndex, adjacency, IXP member index) are intentionally absent —
// Import rebuilds them, which is both smaller on disk and safer: a corrupted
// index can never disagree with the data it indexes.
type Export struct {
	Cities []geo.City
	ASes   []AS
	PoPs   []PoP
	Links  []Link
	IXPs   []IXPExport
}

// IXPExport serializes one exchange point. Members keeps LAN order: member
// index assigns hop IPs, so reordering would change addresses.
type IXPExport struct {
	Name    string
	City    string
	Prefix  string
	Members []ASN
}

// Export snapshots the topology into its serialized form. Safe on frozen
// topologies and CoW views (it only reads).
func (t *Topology) Export() *Export {
	e := &Export{
		Cities: t.Registry.Cities(),
		PoPs:   append([]PoP(nil), t.pops...),
	}
	for _, a := range t.asOrder {
		e.ASes = append(e.ASes, *t.ases[a])
	}
	for _, l := range t.links {
		e.Links = append(e.Links, *l)
	}
	for _, x := range t.IXPs() {
		e.IXPs = append(e.IXPs, IXPExport{
			Name: x.Name, City: x.City, Prefix: x.Prefix,
			Members: append([]ASN(nil), x.Members...),
		})
	}
	return e
}

// finite rejects NaN/Inf floats in serialized numeric fields: the disk
// envelope's checksum catches random corruption, but Import is the last line
// of defense against a hostile or buggy payload poisoning downstream
// arithmetic.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Import reconstructs a mutable Topology from its serialized form,
// validating every cross-reference: unknown cities, duplicate ASNs or PoPs,
// out-of-range link endpoints, non-finite floats, and IXP members without a
// PoP in the exchange city are all errors, never panics. The returned
// topology is unfrozen — the artifact layer freezes it exactly like a fresh
// build.
func Import(e *Export) (*Topology, error) {
	if e == nil {
		return nil, fmt.Errorf("topo: import: nil export")
	}
	for _, c := range e.Cities {
		if c.Name == "" || !finite(c.Lat, c.Lon, c.UTCOffset) {
			return nil, fmt.Errorf("topo: import: invalid city %q", c.Name)
		}
	}
	t := &Topology{
		Registry:     geo.FromCities(e.Cities),
		ases:         make(map[ASN]*AS, len(e.ASes)),
		popIndex:     make(map[popKey]PoPID, len(e.PoPs)),
		adj:          make(map[PoPID][]LinkID, len(e.PoPs)),
		ixps:         make(map[string]*IXP, len(e.IXPs)),
		ixpMemberIdx: make(map[string]map[ASN]int, len(e.IXPs)),
	}
	if len(e.ASes) == 0 {
		return nil, fmt.Errorf("topo: import: empty topology")
	}
	for _, a := range e.ASes {
		if _, ok := t.ases[a.ASN]; ok {
			return nil, fmt.Errorf("topo: import: duplicate AS%d", a.ASN)
		}
		c := a
		t.ases[a.ASN] = &c
		t.asOrder = append(t.asOrder, a.ASN)
	}
	for i, p := range e.PoPs {
		if p.ID != PoPID(i) {
			return nil, fmt.Errorf("topo: import: PoP %d has ID %d (must equal its index)", i, p.ID)
		}
		if _, ok := t.ases[p.AS]; !ok {
			return nil, fmt.Errorf("topo: import: PoP %d references unknown AS%d", i, p.AS)
		}
		if _, err := t.Registry.Get(p.City); err != nil {
			return nil, fmt.Errorf("topo: import: PoP %d: %w", i, err)
		}
		key := popKey{p.AS, p.City}
		if _, ok := t.popIndex[key]; ok {
			return nil, fmt.Errorf("topo: import: AS%d has two PoPs in %s", p.AS, p.City)
		}
		t.pops = append(t.pops, p)
		t.popIndex[key] = p.ID
	}
	for _, x := range e.IXPs {
		if _, ok := t.ixps[x.Name]; ok {
			return nil, fmt.Errorf("topo: import: duplicate IXP %q", x.Name)
		}
		if _, err := t.Registry.Get(x.City); err != nil {
			return nil, fmt.Errorf("topo: import: IXP %s: %w", x.Name, err)
		}
		ix := &IXP{Name: x.Name, City: x.City, Prefix: x.Prefix, Members: append([]ASN(nil), x.Members...)}
		idx := make(map[ASN]int, len(x.Members))
		for i, m := range x.Members {
			if _, ok := t.ases[m]; !ok {
				return nil, fmt.Errorf("topo: import: IXP %s member AS%d unknown", x.Name, m)
			}
			if _, ok := idx[m]; ok {
				return nil, fmt.Errorf("topo: import: IXP %s lists AS%d twice", x.Name, m)
			}
			if _, ok := t.popIndex[popKey{m, x.City}]; !ok {
				return nil, fmt.Errorf("topo: import: IXP %s member AS%d has no PoP in %s", x.Name, m, x.City)
			}
			idx[m] = i
		}
		t.ixps[x.Name] = ix
		t.ixpMemberIdx[x.Name] = idx
	}
	for i, l := range e.Links {
		if l.ID != LinkID(i) {
			return nil, fmt.Errorf("topo: import: link %d has ID %d (must equal its index)", i, l.ID)
		}
		if int(l.A) < 0 || int(l.A) >= len(t.pops) || int(l.B) < 0 || int(l.B) >= len(t.pops) {
			return nil, fmt.Errorf("topo: import: link %d endpoints out of range", i)
		}
		if l.Rel != CustomerOf && l.Rel != PeerWith {
			return nil, fmt.Errorf("topo: import: link %d has unknown relationship %d", i, int(l.Rel))
		}
		if !finite(l.CapacityMbps, l.DelayMs, l.BaseUtil) {
			return nil, fmt.Errorf("topo: import: link %d has non-finite parameters", i)
		}
		if l.IXP != "" {
			if _, ok := t.ixps[l.IXP]; !ok {
				return nil, fmt.Errorf("topo: import: link %d references unknown IXP %q", i, l.IXP)
			}
		}
		c := l
		t.links = append(t.links, &c)
		// Adjacency rebuild: links were appended A-then-B at creation, so
		// replaying that in ID order reproduces the original adjacency lists
		// (whose order downstream iteration depends on) exactly.
		t.adj[c.A] = append(t.adj[c.A], c.ID)
		t.adj[c.B] = append(t.adj[c.B], c.ID)
	}
	// Same consistency gate as Builder.Build: a pair of ASes must relate
	// consistently across all their links.
	if _, err := t.Relationships(); err != nil {
		return nil, fmt.Errorf("topo: import: %w", err)
	}
	t.addrs = popAddrs(t.pops)
	return t, nil
}
