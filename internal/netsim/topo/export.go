package topo

import "sisyphus/internal/netsim/geo"

// Export is a value snapshot of a Topology, the oracle tests compare
// topologies by: every slice is in canonical order (cities by name, ASes and
// PoPs and links in creation order, IXPs by name) and nothing is a map, so
// reflect.DeepEqual on two snapshots holds exactly when the topologies agree
// on all their data. The derived indexes (popIndex, adjacency, IXP member
// index) are absent; they follow from the data.
type Export struct {
	Cities []geo.City
	ASes   []AS
	PoPs   []PoP
	Links  []Link
	IXPs   []IXPExport
}

// IXPExport is one exchange point's snapshot. Members keeps LAN order: member
// index assigns hop IPs, so reordering would change addresses.
type IXPExport struct {
	Name    string
	City    string
	Prefix  string
	Members []ASN
}

// Export snapshots the topology. Safe on frozen topologies and CoW views (it
// only reads).
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
