package bgp

import (
	"context"
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// trombone builds the paper's motivating scenario: access AS 3741 in
// East London/Johannesburg buys transit from AS 200, which reaches content
// AS 300 only via a European tier1 (AS 100, London): local traffic
// trombones through London. An IXP in Johannesburg can shortcut it.
func trombone(t testing.TB) *topo.Topology {
	b := topo.NewBuilder(nil).
		AddAS(100, "EuroTier1", topo.Transit, "London", "Johannesburg").
		AddAS(200, "ZATransit", topo.Transit, "Johannesburg").
		AddAS(3741, "ZAAccess", topo.Access, "East London", "Johannesburg").
		AddAS(300, "ContentCo", topo.Content, "London", "Johannesburg").
		Connect(200, "Johannesburg", topo.CustomerOf, 100, "Johannesburg").
		Connect(3741, "Johannesburg", topo.CustomerOf, 200, "Johannesburg").
		Connect(300, "London", topo.CustomerOf, 100, "London").
		AddIXP("NAPAfrica-JNB", "Johannesburg", "196.60.8.")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestRouteSelectionPrefersCustomerThenPeerThenProvider(t *testing.T) {
	// AS 1 can reach dest 4 via customer 2, peer 3, or provider 5.
	b := topo.NewBuilder(nil).
		AddAS(1, "A", topo.Transit, "London").
		AddAS(2, "Cust", topo.Transit, "London").
		AddAS(3, "Peer", topo.Transit, "London").
		AddAS(5, "Prov", topo.Transit, "London").
		AddAS(4, "Dest", topo.Content, "London").
		Connect(2, "London", topo.CustomerOf, 1, "London").
		Connect(1, "London", topo.PeerWith, 3, "London").
		Connect(1, "London", topo.CustomerOf, 5, "London").
		Connect(4, "London", topo.CustomerOf, 2, "London").
		Connect(4, "London", topo.CustomerOf, 3, "London").
		Connect(4, "London", topo.CustomerOf, 5, "London")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rib.Lookup(1, 4)
	if r == nil || r.NextHop() != 2 {
		t.Fatalf("route = %+v, want via customer AS2", r)
	}
	if r.LocalPref != PrefCustomer {
		t.Fatalf("localpref = %d", r.LocalPref)
	}
}

func TestPeerRoutesNotReExported(t *testing.T) {
	// Classic valley: 1 peers with 2, 2 peers with 3. 1 must NOT reach 3
	// through 2 (peer→peer export is forbidden) when no other path exists.
	b := topo.NewBuilder(nil).
		AddAS(1, "A", topo.Transit, "London").
		AddAS(2, "B", topo.Transit, "London").
		AddAS(3, "C", topo.Transit, "London").
		Connect(1, "London", topo.PeerWith, 2, "London").
		Connect(2, "London", topo.PeerWith, 3, "London")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := rib.Lookup(1, 3); r != nil {
		t.Fatalf("valley route leaked: %+v", r)
	}
	// Direct peer is reachable.
	if r := rib.Lookup(1, 2); r == nil {
		t.Fatal("peer unreachable")
	}
}

func TestProviderExportsEverythingToCustomer(t *testing.T) {
	tp := trombone(t)
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := rib.Lookup(3741, 300)
	if rt == nil {
		t.Fatal("AS3741 has no route to AS300")
	}
	path := append([]topo.ASN{3741}, rt.Path...)
	want := []topo.ASN{3741, 200, 100, 300}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v want %v", path, want)
		}
	}
}

func TestIXPJoinShiftsRouteToPeer(t *testing.T) {
	tp := trombone(t)
	if _, err := tp.JoinIXP("NAPAfrica-JNB", 300); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.JoinIXP("NAPAfrica-JNB", 3741); err != nil {
		t.Fatal(err)
	}
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rib.Lookup(3741, 300)
	if r == nil || r.NextHop() != 300 {
		t.Fatalf("after IXP join route = %+v, want direct peer", r)
	}
	if r.LocalPref != PrefPeer {
		t.Fatalf("localpref = %d want peer", r.LocalPref)
	}
}

func TestLocalPrefOverrideFlipsChoice(t *testing.T) {
	tp := trombone(t)
	_, _ = tp.JoinIXP("NAPAfrica-JNB", 300)
	_, _ = tp.JoinIXP("NAPAfrica-JNB", 3741)
	pol := NewPolicy()
	// Depref the IXP peer below the provider: route goes back to transit.
	pol.SetLocalPref(3741, 300, 50)
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, pol)
	if err != nil {
		t.Fatal(err)
	}
	r := rib.Lookup(3741, 300)
	if r == nil || r.NextHop() != 200 {
		t.Fatalf("route = %+v, want via AS200 after depref", r)
	}
}

func TestPoisoningDivertsPath(t *testing.T) {
	// Two transit options: dest 300 reachable from 3741 via 200->100->300.
	// Add an alternative 201 so poisoning 100 forces the other path.
	b := topo.NewBuilder(nil).
		AddAS(100, "T1a", topo.Transit, "London", "Johannesburg").
		AddAS(101, "T1b", topo.Transit, "London", "Johannesburg").
		AddAS(3741, "Access", topo.Access, "Johannesburg").
		AddAS(300, "Dest", topo.Content, "London").
		Connect(3741, "Johannesburg", topo.CustomerOf, 100, "Johannesburg").
		Connect(3741, "Johannesburg", topo.CustomerOf, 101, "Johannesburg").
		Connect(300, "London", topo.CustomerOf, 100, "London").
		Connect(300, "London", topo.CustomerOf, 101, "London")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := rib.Lookup(3741, 300)
	if before == nil {
		t.Fatal("unreachable before poisoning")
	}
	usedFirst := before.NextHop()

	pol := NewPolicy()
	pol.Poison[300] = []topo.ASN{usedFirst}
	rib2, err := Compute(context.Background(), parallel.Pool{}, tp, pol)
	if err != nil {
		t.Fatal(err)
	}
	after := rib2.Lookup(3741, 300)
	if after == nil {
		t.Fatal("poisoning killed all reachability")
	}
	if after.NextHop() == usedFirst {
		t.Fatalf("poisoned AS%d still on path %v", usedFirst, after.Path)
	}
	// The poisoned AS itself must have no route (it sees itself in the path).
	if r := rib2.Lookup(usedFirst, 300); r != nil {
		t.Fatalf("poisoned AS still has a route: %+v", r)
	}
}

func TestMaintenanceDenyLink(t *testing.T) {
	tp := trombone(t)
	rel, err := tp.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	link3741 := rel.Links[3741][200][0]
	pol := NewPolicy()
	pol.DenyLink[link3741] = true
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, pol)
	if err != nil {
		t.Fatal(err)
	}
	if r := rib.Lookup(3741, 300); r != nil {
		t.Fatalf("single-homed AS should be cut off during maintenance, got %+v", r)
	}
}

func TestLinkDownRecompute(t *testing.T) {
	tp := trombone(t)
	rel, _ := tp.Relationships()
	id := rel.Links[200][100][0]
	tp.SetLinkUp(id, false)
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := rib.Lookup(3741, 300); r != nil {
		t.Fatalf("route survived dead link: %+v", r)
	}
	tp.SetLinkUp(id, true)
	rib2, _ := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if rib2.Lookup(3741, 300) == nil {
		t.Fatal("route did not return after link restore")
	}
}

func TestForwardExpandsTrombone(t *testing.T) {
	tp := trombone(t)
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := tp.FindPoP(3741, "East London")
	dst, _ := tp.FindPoP(300, "Johannesburg")
	p, err := rib.Forward(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// The path must physically visit London (via AS100) even though both
	// endpoints are in South Africa: propagation far above domestic floor.
	if p.PropagationMs() < 80 {
		t.Fatalf("trombone propagation = %v ms, expected intercontinental", p.PropagationMs())
	}
	if got := p.ASPath; got[0] != 3741 || got[len(got)-1] != 300 {
		t.Fatalf("as path = %v", got)
	}
	// After the IXP join, the same endpoints should be a few ms apart.
	_, _ = tp.JoinIXP("NAPAfrica-JNB", 300)
	_, _ = tp.JoinIXP("NAPAfrica-JNB", 3741)
	rib2, _ := Compute(context.Background(), parallel.Pool{}, tp, nil)
	p2, err := rib2.Forward(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PropagationMs() > 15 {
		t.Fatalf("post-IXP propagation = %v ms, want domestic", p2.PropagationMs())
	}
	if p2.PropagationMs() >= p.PropagationMs() {
		t.Fatal("IXP join did not reduce latency")
	}
}

func TestForwardIntraAS(t *testing.T) {
	tp := trombone(t)
	rib, _ := Compute(context.Background(), parallel.Pool{}, tp, nil)
	a, _ := tp.FindPoP(3741, "East London")
	b, _ := tp.FindPoP(3741, "Johannesburg")
	p, err := rib.Forward(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 1 || p.Hops[0].Link != nil {
		t.Fatalf("intra-AS path = %+v", p.Hops)
	}
	if len(p.ASPath) != 1 || p.ASPath[0] != 3741 {
		t.Fatalf("as path = %v", p.ASPath)
	}
	// Same PoP: empty path.
	p2, err := rib.Forward(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Hops) != 0 {
		t.Fatalf("self path = %+v", p2.Hops)
	}
}

func TestForwardUnreachable(t *testing.T) {
	b := topo.NewBuilder(nil).
		AddAS(1, "A", topo.Access, "London").
		AddAS(2, "B", topo.Access, "Paris").
		AddAS(3, "C", topo.Transit, "London").
		Connect(1, "London", topo.CustomerOf, 3, "London")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rib, _ := Compute(context.Background(), parallel.Pool{}, tp, nil)
	p1, _ := tp.FindPoP(1, "London")
	p2, _ := tp.FindPoP(2, "Paris")
	if _, err := rib.Forward(p1, p2); err == nil {
		t.Fatal("unreachable destination accepted")
	}
}

func TestNearestPoPPicksClosest(t *testing.T) {
	tp := trombone(t)
	_, _ = tp.JoinIXP("NAPAfrica-JNB", 300)
	_, _ = tp.JoinIXP("NAPAfrica-JNB", 3741)
	rib, _ := Compute(context.Background(), parallel.Pool{}, tp, nil)
	src, _ := tp.FindPoP(3741, "Johannesburg")
	id, err := rib.NearestPoP(src, 300)
	if err != nil {
		t.Fatal(err)
	}
	if tp.PoP(id).City != "Johannesburg" {
		t.Fatalf("nearest content PoP = %s, want Johannesburg", tp.PoP(id).City)
	}
}

func TestGeneratedTopologiesConvergeAndAreValleyFree(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
		if err != nil {
			return false
		}
		rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
		if err != nil {
			return false
		}
		rel := rib.Rel
		// Every chosen route must be valley-free and loop-free.
		for _, dst := range tp.ASes() {
			for _, src := range tp.ASes() {
				if src.ASN == dst.ASN {
					continue
				}
				rt := rib.Lookup(src.ASN, dst.ASN)
				if rt == nil {
					// Tier1-rooted hierarchy: everything should be
					// reachable from everything.
					return false
				}
				path := append([]topo.ASN{src.ASN}, rt.Path...)
				seen := make(map[topo.ASN]bool)
				for _, a := range path {
					if seen[a] {
						return false
					}
					seen[a] = true
				}
				if !ValleyFree(rel, path) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardingMatchesControlPlane(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
		if err != nil {
			return false
		}
		rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
		if err != nil {
			return false
		}
		pops := tp.Export().PoPs
		for trial := 0; trial < 10; trial++ {
			src := pops[r.Intn(len(pops))].ID
			dst := pops[r.Intn(len(pops))].ID
			p, err := rib.Forward(src, dst)
			if err != nil {
				return false
			}
			// Hops must be contiguous and end at dst.
			cur := src
			for _, h := range p.Hops {
				if h.From != cur {
					return false
				}
				cur = h.To
			}
			if cur != dst {
				return false
			}
			// The AS sequence of the hops must equal the control-plane path.
			want := p.ASPath
			var got []topo.ASN
			for _, h := range append([]Hop{{To: src}}, p.Hops...) {
				asn := tp.PoP(h.To).AS
				if len(got) == 0 || got[len(got)-1] != asn {
					got = append(got, asn)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyClone(t *testing.T) {
	p := NewPolicy()
	p.SetLocalPref(1, 2, 50)
	p.Poison[3] = []topo.ASN{4}
	p.DenyLink[7] = true
	c := p.Clone()
	c.SetLocalPref(1, 2, 999)
	c.Poison[3][0] = 99
	c.DenyLink[8] = true
	if p.LocalPref[1][2] != 50 || p.Poison[3][0] != 4 || p.DenyLink[8] {
		t.Fatal("clone mutated original")
	}
	p.ClearLocalPref(1, 2)
	if _, ok := p.LocalPref[1][2]; ok {
		t.Fatal("clear failed")
	}
}

// TestPolicyKey pins Policy.Key's contract: equal content gives an equal
// key whatever order the maps were filled in (entries that route like their
// absence included), and any different LocalPref, Poison or DenyLink entry
// gives a different key.
func TestPolicyKey(t *testing.T) {
	base := func() *Policy {
		p := NewPolicy()
		p.SetLocalPref(1, 2, 50)
		p.SetLocalPref(1, 3, 150)
		p.SetLocalPref(4, 2, 10)
		p.Poison[9] = []topo.ASN{5, 6}
		p.DenyLink[7] = true
		p.DenyLink[3] = true
		return p
	}
	want := base().Key()
	same := map[string]func() *Policy{
		"reverse insertion order": func() *Policy {
			p := NewPolicy()
			p.DenyLink[3] = true
			p.DenyLink[7] = true
			p.Poison[9] = []topo.ASN{5, 6}
			p.SetLocalPref(4, 2, 10)
			p.SetLocalPref(1, 3, 150)
			p.SetLocalPref(1, 2, 50)
			return p
		},
		"clone": func() *Policy { return base().Clone() },
		"cleared override's empty row": func() *Policy {
			p := base()
			p.SetLocalPref(8, 1, 300)
			p.ClearLocalPref(8, 1)
			return p
		},
		"empty poison list": func() *Policy { p := base(); p.Poison[2] = nil; return p },
		"false DenyLink":    func() *Policy { p := base(); p.DenyLink[11] = false; return p },
	}
	for name, mk := range same {
		if got := mk().Key(); got != want {
			t.Errorf("%s: key %q, want %q", name, got, want)
		}
	}
	differ := map[string]func(*Policy){
		"LocalPref value":   func(p *Policy) { p.SetLocalPref(1, 2, 51) },
		"LocalPref entry":   func(p *Policy) { p.SetLocalPref(2, 1, 50) },
		"LocalPref removed": func(p *Policy) { p.ClearLocalPref(4, 2) },
		"LocalPref swapped": func(p *Policy) { p.ClearLocalPref(1, 2); p.SetLocalPref(2, 1, 50) },
		"Poison entry":      func(p *Policy) { p.Poison[10] = []topo.ASN{5} },
		"Poison order":      func(p *Policy) { p.Poison[9] = []topo.ASN{6, 5} },
		"Poison longer":     func(p *Policy) { p.Poison[9] = append(p.Poison[9], 8) },
		"Poison removed":    func(p *Policy) { delete(p.Poison, 9) },
		"DenyLink entry":    func(p *Policy) { p.DenyLink[8] = true },
		"DenyLink removed":  func(p *Policy) { delete(p.DenyLink, 7) },
	}
	seen := map[string]string{want: "base"}
	for name, edit := range differ {
		p := base()
		edit(p)
		k := p.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: key equals %s's", name, prev)
		}
		seen[k] = name
	}
	if NewPolicy().Key() == want {
		t.Error("empty policy shares the base key")
	}
}

func TestRouteAccessors(t *testing.T) {
	r := &Route{Dest: 5, Path: nil}
	if r.NextHop() != 5 || r.Len() != 0 {
		t.Fatalf("origin route accessors: %v %v", r.NextHop(), r.Len())
	}
	r2 := &Route{Dest: 5, Path: []topo.ASN{2, 5}}
	if r2.NextHop() != 2 || r2.Len() != 2 {
		t.Fatalf("route accessors: %v %v", r2.NextHop(), r2.Len())
	}
}

// TestScaleLargeTopology exercises the routing stack at an order of
// magnitude above the scenario sizes: ~200 ASes. Guarded by -short.
func TestScaleLargeTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	r := mathx.NewRNG(99)
	cfg := topo.GenConfig{Tier1: 6, Tier2: 24, Access: 150, Content: 12, MultihomeProb: 0.6, PeerProb: 0.2}
	tp, err := topo.Generate(r, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check reachability and valley-freeness on a sample.
	ases := tp.ASes()
	rel := rib.Rel
	for trial := 0; trial < 200; trial++ {
		src := ases[r.Intn(len(ases))].ASN
		dst := ases[r.Intn(len(ases))].ASN
		if src == dst {
			continue
		}
		rt := rib.Lookup(src, dst)
		if rt == nil {
			t.Fatalf("AS%d cannot reach AS%d in a tier1-rooted hierarchy", src, dst)
		}
		path := append([]topo.ASN{src}, rt.Path...)
		if !ValleyFree(rel, path) {
			t.Fatalf("valley in %v", path)
		}
	}
}
