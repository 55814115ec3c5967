package engine

import (
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
)

// TestPerfInvariants checks physical sanity of every performance answer on
// random generated topologies: RTT at least twice the path propagation,
// loss a probability, throughput non-negative and bounded by the bottleneck
// capacity, and MaxUtil within the traffic model's clamp.
func TestPerfInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
		if err != nil {
			return false
		}
		e := New(tp, seed, Config{})
		if err := e.RunUntil(5); err != nil {
			return false
		}
		pops := tp.Export().PoPs
		for trial := 0; trial < 12; trial++ {
			src := pops[r.Intn(len(pops))].ID
			dst := pops[r.Intn(len(pops))].ID
			perf, err := e.Perf(src, dst)
			if err != nil {
				return false // hierarchy guarantees reachability
			}
			if perf.RTTms < 2*perf.Path.PropagationMs()-1e-9 {
				return false
			}
			if perf.LossRate < 0 || perf.LossRate > 1 {
				return false
			}
			if len(perf.Path.Hops) > 0 && src != dst {
				if perf.ThroughputMbps < 0 {
					return false
				}
			}
			if perf.MaxUtil < 0 || perf.MaxUtil > 0.985+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestFamilyPlanesIndependentPolicies verifies that v4 overrides never leak
// into v6 routes and vice versa on random topologies.
func TestFamilyPlanesIndependentPolicies(t *testing.T) {
	r := mathx.NewRNG(7)
	tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(tp, 7, Config{})
	// Find a multihomed access AS.
	rel, err := tp.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	var asn topo.ASN
	var providers []topo.ASN
	for _, as := range tp.ASes() {
		if as.Type != topo.Access {
			continue
		}
		providers = providers[:0]
		for n, k := range rel.Rel[as.ASN] {
			if k == topo.RelCustomer {
				providers = append(providers, n)
			}
		}
		if len(providers) >= 2 {
			asn = as.ASN
			break
		}
	}
	if asn == 0 {
		t.Skip("no multihomed access AS in this topology")
	}
	// Depref one provider on v4 only.
	e.Policy.SetLocalPref(asn, providers[0], 10)
	e.MarkDirty()
	rib4, err := e.RIB()
	if err != nil {
		t.Fatal(err)
	}
	// v6 must still be willing to use providers[0] somewhere v4 is not.
	diverged := false
	for _, dst := range tp.ASes() {
		rib6, err := e.RoutesToward(dst.ASN, V6)
		if err != nil {
			t.Fatal(err)
		}
		r4 := rib4.Lookup(asn, dst.ASN)
		r6 := rib6.Lookup(asn, dst.ASN)
		if r4 == nil || r6 == nil {
			continue
		}
		if r4.NextHop() != r6.NextHop() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("family planes never diverged despite a v4-only override")
	}
}

// TestEngineReplayAcrossFamilies: dual-stack state must not break the
// deterministic replay contract.
func TestEngineReplayAcrossFamilies(t *testing.T) {
	run := func() []float64 {
		r := mathx.NewRNG(3)
		tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		e := New(tp, 3, Config{})
		pops := tp.Export().PoPs
		var out []float64
		for i := 0; i < 20; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			fam := V4
			if i%2 == 1 {
				fam = V6
			}
			perf, err := perfFamily(e, pops[0].ID, pops[len(pops)-1].ID, fam)
			if err != nil {
				continue
			}
			out = append(out, perf.RTTms)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
