package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
)

// snapshotPolicy deep-copies a policy without normalizing it (empty inner
// maps and empty poison lists survive), so reflect.DeepEqual against the
// live policy detects any edit at all.
func snapshotPolicy(p *bgp.Policy) *bgp.Policy {
	out := &bgp.Policy{
		LocalPref: make(map[topo.ASN]map[topo.ASN]int, len(p.LocalPref)),
		Poison:    make(map[topo.ASN][]topo.ASN, len(p.Poison)),
		DenyLink:  maps.Clone(p.DenyLink),
	}
	for a, m := range p.LocalPref {
		out.LocalPref[a] = maps.Clone(m)
	}
	for d, list := range p.Poison {
		out.Poison[d] = slices.Clone(list)
	}
	return out
}

// multihomedWorld generates a topology with a multihomed access AS and
// returns it with that AS's sorted providers and a content AS to measure.
func multihomedWorld(t *testing.T) (tp *topo.Topology, asn topo.ASN, providers []topo.ASN, content topo.ASN) {
	t.Helper()
	for seed := uint64(1); seed < 50; seed++ {
		tp, err := topo.Generate(mathx.NewRNG(seed), topo.DefaultGenConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := tp.Relationships()
		if err != nil {
			t.Fatal(err)
		}
		asn, providers, content = 0, nil, 0
		for _, as := range tp.ASes() {
			switch {
			case as.Type == topo.Content && content == 0:
				content = as.ASN
			case as.Type == topo.Access && asn == 0:
				var ps []topo.ASN
				for n, k := range rel.Rel[as.ASN] {
					if k == topo.RelCustomer {
						ps = append(ps, n)
					}
				}
				if len(ps) >= 2 {
					sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
					asn, providers = as.ASN, ps
				}
			}
		}
		if asn != 0 && content != 0 {
			return tp, asn, providers, content
		}
	}
	t.Fatal("no generated world with a multihomed access AS and a content AS")
	return
}

// TestPerfToASWithMatchesForcedRecompute is the what-if contract: on a
// generated world whose adaptive egress controller is moving the factual
// policy, pinning a multihomed AS to each provider every hour through
// PerfToASWith must answer exactly what the edit-recompute-restore sequence
// answers — and must leave the factual policy, both RIBs and the dirty
// flags alone, which the unchanged RIB pointers prove.
func TestPerfToASWithMatchesForcedRecompute(t *testing.T) {
	const hours = 240
	tp, asn, providers, content := multihomedWorld(t)
	e := New(tp, 11, Config{AdaptiveEgress: true})
	rel, err := tp.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	// Recurring flash crowds on every provider link keep the controller
	// shifting and releasing, so the policies being cloned carry its
	// overrides.
	for i, p := range providers {
		for h := 10.0 + 25*float64(i); h < hours; h += 60 {
			for _, id := range rel.Links[asn][p] {
				e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: id, StartHour: h, Hours: 20, Magnitude: 0.6})
			}
		}
	}
	src := tp.PoPsOf(asn)[0]
	pin := func(p topo.ASN) func(*bgp.Policy) {
		return func(pol *bgp.Policy) {
			for _, q := range providers {
				if q != p {
					pol.SetLocalPref(asn, q, 10)
				}
			}
			pol.SetLocalPref(asn, p, bgp.PrefProvider)
		}
	}
	pathsDiffered := false
	for e.Hour() < hours {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, p := range providers {
			rib4, err := e.RIB()
			if err != nil {
				t.Fatal(err)
			}
			rib6, err := e.RIBFamily(V6)
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshotPolicy(e.Policy)

			got, err := e.PerfToASWith(src, content, pin(p))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.Policy, snap) {
				t.Fatalf("hour %v: PerfToASWith edited the factual policy", e.Hour())
			}
			if r, _ := e.RIB(); r != rib4 {
				t.Fatalf("hour %v: PerfToASWith triggered a v4 recompute", e.Hour())
			}
			if r, _ := e.RIBFamily(V6); r != rib6 {
				t.Fatalf("hour %v: PerfToASWith triggered a v6 recompute", e.Hour())
			}

			// The reference: edit the live policy, recompute everything,
			// measure, restore the snapshot.
			pin(p)(e.Policy)
			e.MarkDirty()
			want, err := e.PerfToAS(src, content)
			if err != nil {
				t.Fatal(err)
			}
			e.Policy = snap
			e.MarkDirty()

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hour %v, pinned to AS%d: what-if %+v, recompute %+v", e.Hour(), p, *got, *want)
			}
			paths = append(paths, fmt.Sprint(got.Path.ASPath))
		}
		if paths[0] != paths[1] {
			pathsDiffered = true
		}
	}
	if !pathsDiffered {
		t.Fatal("pinning different providers never changed the path; the test is vacuous")
	}
	if log := strings.Join(e.eventLg, ";"); !strings.Contains(log, fmt.Sprintf("egress-shift AS%d", asn)) {
		t.Fatalf("adaptive egress never moved AS%d; the cloned policies carried no overrides: %s", asn, log)
	}
}
