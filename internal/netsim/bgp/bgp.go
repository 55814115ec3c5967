// Package bgp computes interdomain routes over a topo.Topology with the
// standard policy model: Gao–Rexford export rules (providers export
// everything to customers; routes learned from peers or providers are never
// re-exported to other peers or providers) and local preference ordered
// customer > peer > provider. It supports the route-manipulation events the
// paper treats as natural experiments and instruments: link failures,
// local-preference overrides, maintenance windows, and BGP poisoning
// (PoiRoot's instrumental variable).
//
// Routing is computed to a fixed point per destination AS. Gao–Rexford-
// consistent topologies are guaranteed to converge; the solver caps sweeps
// and reports an error otherwise, so policy bugs surface loudly.
package bgp

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// Local preference defaults by relationship to the next hop.
const (
	PrefCustomer = 300
	PrefPeer     = 200
	PrefProvider = 100
)

// Route is one AS's chosen route toward a destination AS.
type Route struct {
	Dest topo.ASN
	// Path is the AS path from (exclusive) the owning AS to the
	// destination, i.e. Path[0] is the next hop and Path[len-1] == Dest.
	// It is empty for the origin's own route. Poisoned ASNs appear in the
	// origin's announced path and therefore in everyone's Path.
	Path []topo.ASN
	// LocalPref is the preference under which the route was selected.
	LocalPref int
}

// NextHop returns the next-hop AS, or the destination itself at the origin.
func (r *Route) NextHop() topo.ASN {
	if len(r.Path) == 0 {
		return r.Dest
	}
	return r.Path[0]
}

// Len returns the AS-path length (0 at the origin).
func (r *Route) Len() int { return len(r.Path) }

// Policy collects the routing knobs events can turn.
type Policy struct {
	// LocalPref overrides the default relationship-based preference:
	// LocalPref[a][n] applies at AS a to routes via neighbor n.
	LocalPref map[topo.ASN]map[topo.ASN]int
	// Poison lists ASNs the origin inserts into its announcement for a
	// destination, causing them to reject the route (loop detection).
	Poison map[topo.ASN][]topo.ASN
	// DenyLink marks links administratively down (maintenance windows)
	// without mutating the topology.
	DenyLink map[topo.LinkID]bool
}

// NewPolicy returns an empty policy.
func NewPolicy() *Policy {
	return &Policy{
		LocalPref: make(map[topo.ASN]map[topo.ASN]int),
		Poison:    make(map[topo.ASN][]topo.ASN),
		DenyLink:  make(map[topo.LinkID]bool),
	}
}

// SetLocalPref sets a's preference for routes via neighbor n.
func (p *Policy) SetLocalPref(a, n topo.ASN, pref int) {
	if p.LocalPref[a] == nil {
		p.LocalPref[a] = make(map[topo.ASN]int)
	}
	p.LocalPref[a][n] = pref
}

// ClearLocalPref removes an override.
func (p *Policy) ClearLocalPref(a, n topo.ASN) {
	if p.LocalPref[a] != nil {
		delete(p.LocalPref[a], n)
	}
}

// Clone returns a deep copy, so events can be applied to a scratch policy.
func (p *Policy) Clone() *Policy {
	out := NewPolicy()
	for a, m := range p.LocalPref {
		for n, v := range m {
			out.SetLocalPref(a, n, v)
		}
	}
	for d, list := range p.Poison {
		out.Poison[d] = append([]topo.ASN(nil), list...)
	}
	for l, v := range p.DenyLink {
		out.DenyLink[l] = v
	}
	return out
}

// Key returns the policy's content as an exact byte string: the LocalPref,
// Poison and DenyLink entries, each section sorted and counted. Entries
// that route exactly like their absence — an empty LocalPref row, an empty
// poison list, a DenyLink set to false — are left out, so two policies
// with equal keys converge to equal routes whatever order their maps were
// filled in. A poison list keeps its own order: it is the announced path.
func (p *Policy) Key() string {
	type pref struct {
		a, n topo.ASN
		v    int
	}
	var prefs []pref
	for a, m := range p.LocalPref {
		for n, v := range m {
			prefs = append(prefs, pref{a, n, v})
		}
	}
	sort.Slice(prefs, func(i, j int) bool {
		if prefs[i].a != prefs[j].a {
			return prefs[i].a < prefs[j].a
		}
		return prefs[i].n < prefs[j].n
	})
	var poisoned []topo.ASN
	for d, list := range p.Poison {
		if len(list) > 0 {
			poisoned = append(poisoned, d)
		}
	}
	slices.Sort(poisoned)
	var denied []topo.LinkID
	for id, v := range p.DenyLink {
		if v {
			denied = append(denied, id)
		}
	}
	slices.Sort(denied)

	b := binary.AppendUvarint(nil, uint64(len(prefs)))
	for _, e := range prefs {
		b = binary.AppendUvarint(b, uint64(e.a))
		b = binary.AppendUvarint(b, uint64(e.n))
		b = binary.AppendVarint(b, int64(e.v))
	}
	b = binary.AppendUvarint(b, uint64(len(poisoned)))
	for _, d := range poisoned {
		b = binary.AppendUvarint(b, uint64(d))
		b = binary.AppendUvarint(b, uint64(len(p.Poison[d])))
		for _, a := range p.Poison[d] {
			b = binary.AppendUvarint(b, uint64(a))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(denied)))
	for _, id := range denied {
		b = binary.AppendVarint(b, int64(id))
	}
	return string(b)
}

// RIB is the converged set of routing tables: for every destination AS, the
// best route at every AS that can reach it.
//
// A RIB is immutable once Compute, ComputeDests or Import returns it:
// nothing writes its tables or routes afterwards, which is what lets Fork
// share them outright. Lookup's routes must be treated as read-only.
//
// Forwarding is a pure function of the tables and the topology's link
// state, so a RIB memoizes Forward and NearestPoP answers, flushing the
// memo whenever the topology's Epoch moves. The Paths it hands out are
// shared by every caller asking the same question and must be treated as
// read-only too. The memo is unsynchronized: a RIB instance has one
// forwarding owner — the engine it seeds, or the engine whose route memo
// computed it. Such an engine keeps a memoized RIB, what-if or factual,
// forwarding memo included, across hours for as long as its topology's
// epoch holds. A RIB
// held for sharing (the artifact store's original) is only ever forked,
// and each Fork starts with an empty memo.
type RIB struct {
	Topo *topo.Topology
	Rel  *topo.ASRelationships
	// best[dest][as] is as's chosen route to dest.
	best map[topo.ASN]map[topo.ASN]*Route
	// The forwarding memo: Forward and NearestPoP answers, errors
	// included, filled under topology epoch memoEpoch. Nil until the first
	// query.
	paths     map[[2]topo.PoPID]fwdAnswer
	near      map[nearKey]nearAnswer
	memoEpoch uint64
}

// Lookup returns a's route to dest, or nil if unreachable.
func (r *RIB) Lookup(a, dest topo.ASN) *Route {
	m := r.best[dest]
	if m == nil {
		return nil
	}
	return m[a]
}

// maxSweeps bounds convergence iterations; Gao–Rexford systems settle in
// O(diameter) sweeps, so hitting this means a policy dispute wheel.
const maxSweeps = 200

// Compute converges routing for every destination AS under the policy
// (nil means default policy). It is ComputeDests over every AS in
// topology order.
func Compute(ctx context.Context, pool parallel.Pool, t *topo.Topology, pol *Policy) (*RIB, error) {
	ases := t.ASes()
	dests := make([]topo.ASN, len(ases))
	for i, as := range ases {
		dests[i] = as.ASN
	}
	return ComputeDests(ctx, pool, t, pol, dests)
}

// ComputeDests converges routing toward the listed destination ASes only
// (nil policy means default policy). The returned RIB holds tables for
// exactly those destinations; Lookup toward any other destination reports
// no route. Because each destination's fixed point depends only on the
// topology, relationships and policy, every listed table equals the one a
// full Compute under the same policy would build — which is what lets a
// what-if question about one destination skip the rest of the internet.
//
// Destinations fan out across pool; tables come back in list order and are
// assembled sequentially, so the result is identical to the sequential
// loop. Cancelling ctx stops scheduling further destinations and returns
// ctx.Err(). A destination that is not in the topology, or is listed twice,
// is an error.
func ComputeDests(ctx context.Context, pool parallel.Pool, t *topo.Topology, pol *Policy, dests []topo.ASN) (*RIB, error) {
	if pol == nil {
		pol = NewPolicy()
	}
	seen := make(map[topo.ASN]bool, len(dests))
	for _, d := range dests {
		if _, err := t.AS(d); err != nil {
			return nil, fmt.Errorf("bgp: destination: %w", err)
		}
		if seen[d] {
			return nil, fmt.Errorf("bgp: destination AS%d listed twice", d)
		}
		seen[d] = true
	}
	rel, err := relationshipsUnderPolicy(t, pol)
	if err != nil {
		return nil, err
	}
	rib := &RIB{Topo: t, Rel: rel, best: make(map[topo.ASN]map[topo.ASN]*Route, len(dests))}
	tables, err := parallel.Map(ctx, pool, len(dests), func(i int) (destTable, error) {
		return computeDest(t, rel, pol, dests[i])
	})
	if err != nil {
		return nil, err
	}
	var sweeps int64
	for i, tbl := range tables {
		rib.best[dests[i]] = tbl.best
		sweeps += int64(tbl.sweeps)
	}
	// Fixed-point effort accounting (no-op without a recorder on ctx): how
	// many destinations converged and how many sweeps that took in total.
	obs.Add(ctx, "bgp.destinations", int64(len(dests)))
	obs.Add(ctx, "bgp.sweeps", sweeps)
	return rib, nil
}

// relationshipsUnderPolicy rebuilds AS adjacency considering DenyLink.
func relationshipsUnderPolicy(t *topo.Topology, pol *Policy) (*topo.ASRelationships, error) {
	rel, err := t.Relationships()
	if err != nil {
		return nil, err
	}
	if len(pol.DenyLink) == 0 {
		return rel, nil
	}
	// Remove denied links; drop adjacencies with no remaining links.
	for a, m := range rel.Links {
		for b, ids := range m {
			var keep []topo.LinkID
			for _, id := range ids {
				if !pol.DenyLink[id] {
					keep = append(keep, id)
				}
			}
			if len(keep) == 0 {
				delete(rel.Links[a], b)
				delete(rel.Rel[a], b)
			} else {
				rel.Links[a][b] = keep
			}
		}
	}
	return rel, nil
}

// destTable is one destination's converged routing table plus the number of
// sweeps the fixed point took — the effort metric the run trace reports.
type destTable struct {
	best   map[topo.ASN]*Route
	sweeps int
}

func computeDest(t *topo.Topology, rel *topo.ASRelationships, pol *Policy, dest topo.ASN) (destTable, error) {
	best := make(map[topo.ASN]*Route)
	// The origin's announced path carries poisoned ASNs then itself.
	poison := pol.Poison[dest]
	best[dest] = &Route{Dest: dest, Path: nil, LocalPref: PrefCustomer}
	// The origin announces itself; with poisoning it announces the classic
	// sandwich "dest poisoned... dest" so poisoned ASes see themselves in
	// the path and drop the route, while the next hop stays the origin.
	originAnnouncement := []topo.ASN{dest}
	if len(poison) > 0 {
		originAnnouncement = append(append(originAnnouncement, poison...), dest)
	}

	// Deterministic AS sweep order.
	order := make([]topo.ASN, 0)
	for _, as := range t.ASes() {
		order = append(order, as.ASN)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// advertised(n) = the path n offers neighbors.
	advertised := func(n topo.ASN) []topo.ASN {
		if n == dest {
			return originAnnouncement
		}
		r := best[n]
		if r == nil {
			return nil
		}
		return append([]topo.ASN{n}, r.Path...)
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, a := range order {
			if a == dest {
				continue
			}
			var cand *Route
			// Deterministic neighbor order.
			neighbors := make([]topo.ASN, 0, len(rel.Rel[a]))
			for n := range rel.Rel[a] {
				neighbors = append(neighbors, n)
			}
			sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
			for _, n := range neighbors {
				adv := advertised(n)
				if adv == nil {
					continue
				}
				if !canExport(rel, n, a, best[n], n == dest) {
					continue
				}
				if containsASN(adv, a) {
					continue // loop (or poisoned against a)
				}
				pref := prefFor(rel, pol, a, n)
				c := &Route{Dest: dest, Path: adv, LocalPref: pref}
				if better(c, cand) {
					cand = c
				}
			}
			if !routesEqual(cand, best[a]) {
				best[a] = cand
				changed = true
			}
		}
		if !changed {
			return destTable{best: best, sweeps: sweep + 1}, nil
		}
	}
	return destTable{}, fmt.Errorf("bgp: routing for dest AS%d did not converge in %d sweeps (policy dispute?)", dest, maxSweeps)
}

// canExport implements Gao–Rexford: n exports its route to neighbor a iff
// a is n's customer, or n's route was originated by n / learned from one of
// n's customers.
func canExport(rel *topo.ASRelationships, n, a topo.ASN, nRoute *Route, nIsOrigin bool) bool {
	if rel.Rel[n][a] == topo.RelProvider {
		return true // a is n's customer: export everything
	}
	if nIsOrigin {
		return true // own prefix: export to everyone
	}
	if nRoute == nil {
		return false
	}
	// Learned from a customer?
	return rel.Rel[n][nRoute.NextHop()] == topo.RelProvider
}

func prefFor(rel *topo.ASRelationships, pol *Policy, a, n topo.ASN) int {
	if m := pol.LocalPref[a]; m != nil {
		if v, ok := m[n]; ok {
			return v
		}
	}
	switch rel.Rel[a][n] {
	case topo.RelCustomer: // a is the customer here, so n is a's provider
		return PrefProvider
	case topo.RelPeer:
		return PrefPeer
	case topo.RelProvider: // a is the provider here, so n is a's customer
		return PrefCustomer
	}
	return 0
}

// better implements BGP decision order: higher local-pref, then shorter AS
// path, then lowest next-hop ASN.
func better(a, b *Route) bool {
	if b == nil {
		return a != nil
	}
	if a == nil {
		return false
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return a.NextHop() < b.NextHop()
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.LocalPref != b.LocalPref || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

func containsASN(path []topo.ASN, a topo.ASN) bool {
	for _, x := range path {
		if x == a {
			return true
		}
	}
	return false
}

// ValleyFree reports whether the AS path respects Gao–Rexford valley
// freedom under the relationship map: once the path goes over a peer or
// down to a customer, it must keep descending. Used by property tests.
func ValleyFree(rel *topo.ASRelationships, path []topo.ASN) bool {
	// Phase 0: climbing (customer→provider). Phase 1: at most one peer
	// step. Phase 2: descending (provider→customer).
	phase := 0
	for i := 0; i+1 < len(path); i++ {
		k, ok := rel.Rel[path[i]][path[i+1]]
		if !ok {
			return false // not adjacent
		}
		switch k {
		case topo.RelCustomer: // step up: path[i] buys from path[i+1]
			if phase != 0 {
				return false
			}
		case topo.RelPeer:
			if phase > 0 {
				return false
			}
			phase = 1
		case topo.RelProvider: // step down
			phase = 2
		}
	}
	return true
}
