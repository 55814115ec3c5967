package bgp

import (
	"fmt"
	"sort"

	"sisyphus/internal/netsim/topo"
)

// Export is the serialized form of a converged RIB: destinations ascending,
// and within each destination the per-AS chosen routes ascending by AS.
// Both levels are slices, not maps, so a deterministic encoder yields
// identical bytes for identical fixed points. The topology and relationship
// map are not serialized — an imported RIB rebinds to a topology the caller
// supplies, exactly like Fork does.
type Export struct {
	Dests []ExportDest
}

// ExportDest is one destination's routing table.
type ExportDest struct {
	Dest   topo.ASN
	Routes []ExportRoute
}

// ExportRoute is one AS's chosen route. Unreachable marks an AS whose table
// entry exists but holds no route (a fixed point can converge to "withdrawn")
// so import reproduces the table byte-for-byte rather than dropping entries.
type ExportRoute struct {
	AS          topo.ASN
	Unreachable bool
	Path        []topo.ASN
	LocalPref   int
}

// Export snapshots the RIB into its serialized form.
func (r *RIB) Export() *Export {
	e := &Export{}
	dests := make([]topo.ASN, 0, len(r.best))
	for d := range r.best {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, d := range dests {
		m := r.best[d]
		ases := make([]topo.ASN, 0, len(m))
		for a := range m {
			ases = append(ases, a)
		}
		sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
		ed := ExportDest{Dest: d}
		for _, a := range ases {
			rt := m[a]
			er := ExportRoute{AS: a}
			if rt == nil {
				er.Unreachable = true
			} else {
				er.Path = append([]topo.ASN(nil), rt.Path...)
				er.LocalPref = rt.LocalPref
			}
			ed.Routes = append(ed.Routes, er)
		}
		e.Dests = append(e.Dests, ed)
	}
	return e
}

// Import reconstructs a RIB from its serialized form, rebinding it onto t —
// which must be a topology equivalent to the one the fixed point was
// computed over — with the relationship map Compute builds under the
// default (empty) policy. Duplicate destinations or per-destination ASes
// are rejected, never panicked on.
func Import(e *Export, t *topo.Topology) (*RIB, error) {
	if e == nil {
		return nil, fmt.Errorf("bgp: import: nil export")
	}
	if t == nil {
		return nil, fmt.Errorf("bgp: import: nil topology")
	}
	rel, err := t.Relationships()
	if err != nil {
		return nil, fmt.Errorf("bgp: import: %w", err)
	}
	r := &RIB{
		Topo: t,
		Rel:  rel,
		best: make(map[topo.ASN]map[topo.ASN]*Route, len(e.Dests)),
	}
	for _, ed := range e.Dests {
		if _, ok := r.best[ed.Dest]; ok {
			return nil, fmt.Errorf("bgp: import: duplicate destination AS%d", ed.Dest)
		}
		m := make(map[topo.ASN]*Route, len(ed.Routes))
		for _, er := range ed.Routes {
			if _, ok := m[er.AS]; ok {
				return nil, fmt.Errorf("bgp: import: destination AS%d lists AS%d twice", ed.Dest, er.AS)
			}
			if er.Unreachable {
				m[er.AS] = nil
				continue
			}
			m[er.AS] = &Route{
				Dest:      ed.Dest,
				Path:      append([]topo.ASN(nil), er.Path...),
				LocalPref: er.LocalPref,
			}
		}
		r.best[ed.Dest] = m
	}
	return r, nil
}
