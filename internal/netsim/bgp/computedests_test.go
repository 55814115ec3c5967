package bgp

import (
	"context"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// randomPolicy mixes the three policy knobs on a generated topology: local-
// pref overrides, denied links and poisoned announcements. Overrides keep
// customer routes strictly preferred (customers in [300,400), everyone else
// in [1,300)), the Gao–Rexford safety condition, so every policy converges.
func randomPolicy(r *mathx.RNG, tp *topo.Topology, rel *topo.ASRelationships) *Policy {
	pol := NewPolicy()
	ases := tp.ASes()
	for i := 0; i < 1+r.Intn(8); i++ {
		a := ases[r.Intn(len(ases))].ASN
		var neighbors []topo.ASN
		for n := range rel.Rel[a] {
			neighbors = append(neighbors, n)
		}
		if len(neighbors) == 0 {
			continue
		}
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
		n := neighbors[r.Intn(len(neighbors))]
		if rel.Rel[a][n] == topo.RelProvider { // n is a's customer
			pol.SetLocalPref(a, n, 300+r.Intn(100))
		} else {
			pol.SetLocalPref(a, n, 1+r.Intn(299))
		}
	}
	links := tp.Links()
	for i := 0; i < r.Intn(4); i++ {
		pol.DenyLink[links[r.Intn(len(links))].ID] = true
	}
	for i := 0; i < r.Intn(3); i++ {
		dest := ases[r.Intn(len(ases))].ASN
		victim := ases[r.Intn(len(ases))].ASN
		if victim != dest {
			pol.Poison[dest] = append(pol.Poison[dest], victim)
		}
	}
	return pol
}

// TestComputeDestsMatchesCompute is the correctness contract for the
// what-if path: for random topologies and random policies, every table
// ComputeDests converges for a random subset of destinations (in random
// order) equals the corresponding table of a full Compute, and the subset
// RIB holds no route toward any other destination.
func TestComputeDestsMatchesCompute(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
		if err != nil {
			return false
		}
		rel, err := tp.Relationships()
		if err != nil {
			return false
		}
		pol := randomPolicy(r, tp, rel)
		full, err := Compute(context.Background(), parallel.Pool{}, tp, pol)
		if err != nil {
			t.Logf("seed %d: full compute: %v", seed, err)
			return false
		}
		ases := tp.ASes()
		var dests []topo.ASN
		listed := make(map[topo.ASN]bool)
		for _, i := range r.Perm(len(ases))[:1+r.Intn(len(ases))] {
			dests = append(dests, ases[i].ASN)
			listed[ases[i].ASN] = true
		}
		sub, err := ComputeDests(context.Background(), parallel.NewPool(2), tp, pol, dests)
		if err != nil {
			t.Logf("seed %d: subset compute: %v", seed, err)
			return false
		}
		for _, dst := range ases {
			for _, src := range ases {
				got := sub.Lookup(src.ASN, dst.ASN)
				if !listed[dst.ASN] {
					if got != nil {
						t.Logf("seed %d: unlisted dest %d has a route at %d", seed, dst.ASN, src.ASN)
						return false
					}
					continue
				}
				if want := full.Lookup(src.ASN, dst.ASN); !routesEqual(got, want) {
					t.Logf("seed %d: mismatch src=%d dst=%d sub=%+v full=%+v", seed, src.ASN, dst.ASN, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeDestsRejectsBadDestinations(t *testing.T) {
	tp := trombone(t)
	for _, c := range []struct {
		name  string
		dests []topo.ASN
		want  string
	}{
		{"unknown AS", []topo.ASN{300, 9999}, "AS9999"},
		{"listed twice", []topo.ASN{300, 3741, 300}, "AS300 listed twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rib, err := ComputeDests(context.Background(), parallel.Pool{}, tp, nil, c.dests)
			if err == nil {
				t.Fatalf("ComputeDests(%v) accepted: %v", c.dests, rib)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ComputeDests(%v) error %q, want mention of %q", c.dests, err, c.want)
			}
		})
	}
}
