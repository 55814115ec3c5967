package topo

import (
	"strings"
	"testing"
)

// tinyTopo: access AS 100 (Johannesburg) buys transit from AS 200
// (Johannesburg+London); content AS 300 has PoPs in London and Johannesburg;
// an IXP exists in Johannesburg with content AS 300 as initial member.
func tinyTopo(t *testing.T) *Topology {
	t.Helper()
	b := NewBuilder(nil).
		AddAS(100, "EyeballNet", Access, "Johannesburg").
		AddAS(200, "TransitCo", Transit, "Johannesburg", "London").
		AddAS(300, "ContentCo", Content, "London", "Johannesburg").
		Connect(100, "Johannesburg", CustomerOf, 200, "Johannesburg").
		Connect(300, "London", CustomerOf, 200, "London").
		AddIXP("NAPAfrica-JNB", "Johannesburg", "196.60.8.")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.JoinIXP("NAPAfrica-JNB", 300); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuilderBasics(t *testing.T) {
	topo := tinyTopo(t)
	if got := len(topo.ASes()); got != 3 {
		t.Fatalf("ases = %d", got)
	}
	if got := len(topo.pops); got != 5 {
		t.Fatalf("pops = %d", got)
	}
	id, err := topo.FindPoP(200, "London")
	if err != nil {
		t.Fatal(err)
	}
	if p := topo.PoP(id); p.AS != 200 || p.City != "London" {
		t.Fatalf("pop = %+v", p)
	}
	if _, err := topo.FindPoP(100, "London"); err == nil {
		t.Fatal("bogus pop lookup succeeded")
	}
	if _, err := topo.AS(999); err == nil {
		t.Fatal("bogus AS lookup succeeded")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(nil).Build(); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := NewBuilder(nil).AddAS(1, "x", Access, "Narnia").Build(); err == nil {
		t.Fatal("unknown city accepted")
	}
	if _, err := NewBuilder(nil).
		AddAS(1, "x", Access, "London").
		AddAS(1, "y", Access, "Paris").Build(); err == nil {
		t.Fatal("duplicate ASN accepted")
	}
	if _, err := NewBuilder(nil).AddAS(1, "x", Access).Build(); err == nil {
		t.Fatal("AS without city accepted")
	}
	if _, err := NewBuilder(nil).
		AddAS(1, "x", Access, "London").
		Connect(1, "London", CustomerOf, 2, "Paris").Build(); err == nil {
		t.Fatal("link to missing AS accepted")
	}
	// Conflicting relationships between the same pair.
	if _, err := NewBuilder(nil).
		AddAS(1, "x", Access, "London").
		AddAS(2, "y", Transit, "London").
		Connect(1, "London", CustomerOf, 2, "London").
		Connect(1, "London", PeerWith, 2, "London").
		Build(); err == nil {
		t.Fatal("conflicting relationships accepted")
	}
}

func TestLinkDelayDefaultsToGeography(t *testing.T) {
	topo := tinyTopo(t)
	rel, err := topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	// The 300—200 link spans London—London (same city): floor delay.
	ids := rel.Links[300][200]
	if len(ids) != 1 {
		t.Fatalf("links 300-200 = %v", ids)
	}
	if d := topo.Link(ids[0]).DelayMs; d != 0.2 {
		t.Fatalf("same-city delay = %v", d)
	}
}

func TestRelationshipsDerived(t *testing.T) {
	topo := tinyTopo(t)
	rel, err := topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rel[100][200] != RelCustomer || rel.Rel[200][100] != RelProvider {
		t.Fatalf("100-200 rel wrong: %v / %v", rel.Rel[100][200], rel.Rel[200][100])
	}
	// IXP membership of a single AS creates no AS-AS links yet.
	if _, ok := rel.Rel[300][100]; ok {
		t.Fatal("unexpected 300-100 adjacency before both join the IXP")
	}
}

func TestJoinIXPCreatesPeerLinks(t *testing.T) {
	topo := tinyTopo(t)
	links, err := topo.JoinIXP("NAPAfrica-JNB", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 {
		t.Fatalf("new links = %v", links)
	}
	l := topo.Link(links[0])
	if l.IXP != "NAPAfrica-JNB" || l.Rel != PeerWith || !l.Up {
		t.Fatalf("link = %+v", l)
	}
	rel, err := topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rel[100][300] != RelPeer || rel.Rel[300][100] != RelPeer {
		t.Fatal("IXP peering should be peer-peer")
	}
	// Double join rejected.
	if _, err := topo.JoinIXP("NAPAfrica-JNB", 100); err == nil {
		t.Fatal("double join accepted")
	}
	// Joining without a PoP in the IXP city is rejected.
	if _, err := topo.JoinIXP("NAPAfrica-JNB", 999); err == nil {
		t.Fatal("join by unknown AS accepted")
	}
}

func TestAddressing(t *testing.T) {
	topo := tinyTopo(t)
	p100, _ := topo.FindPoP(100, "Johannesburg")
	if got := topo.PoPAddr(p100); got != "10.0.100.1" {
		t.Fatalf("PoP addr = %s", got)
	}
	// AS 300's first PoP is London (ordinal 0), Johannesburg is ordinal 1.
	p300j, _ := topo.FindPoP(300, "Johannesburg")
	if got := topo.PoPAddr(p300j); got != "10.1.44.2" {
		t.Fatalf("AS300 JNB addr = %s", got) // 300 = 1*256 + 44
	}
	addr, ok := topo.IXPAddr("NAPAfrica-JNB", 300)
	if !ok || addr != "196.60.8.1" {
		t.Fatalf("IXP addr = %s (%v)", addr, ok)
	}
	if _, ok := topo.IXPAddr("NAPAfrica-JNB", 100); ok {
		t.Fatal("non-member got an IXP address")
	}
	if _, ok := topo.IXPAddr("nope", 300); ok {
		t.Fatal("unknown IXP produced an address")
	}
}

func TestHopAddrUsesIXPLAN(t *testing.T) {
	topo := tinyTopo(t)
	if _, err := topo.JoinIXP("NAPAfrica-JNB", 100); err != nil {
		t.Fatal(err)
	}
	rel, _ := topo.Relationships()
	ixpLinks := rel.Links[100][300]
	if len(ixpLinks) != 1 {
		t.Fatalf("ixp links = %v", ixpLinks)
	}
	l := topo.Link(ixpLinks[0])
	p300j, _ := topo.FindPoP(300, "Johannesburg")
	hop := topo.HopAddr(l, p300j)
	if !strings.HasPrefix(hop, "196.60.8.") {
		t.Fatalf("hop over IXP link = %s, want LAN prefix", hop)
	}
	// Over a non-IXP link the same PoP reports its AS address.
	p200j, _ := topo.FindPoP(200, "Johannesburg")
	nonIXP := topo.Link(0)
	if got := topo.HopAddr(nonIXP, p200j); !strings.HasPrefix(got, "10.0.200.") {
		t.Fatalf("non-IXP hop = %s", got)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{Access.String(), Transit.String(), Content.String(),
		CustomerOf.String(), PeerWith.String(),
		RelCustomer.String(), RelProvider.String(), RelPeer.String()} {
		if s == "" || strings.HasPrefix(s, "%") {
			t.Fatalf("bad stringer output %q", s)
		}
	}
	if ASType(42).String() == "" || Relationship(42).String() == "" || RelKind(42).String() == "" {
		t.Fatal("unknown enum values should still render")
	}
}

func TestPoPsOf(t *testing.T) {
	topo := tinyTopo(t)
	pops := topo.PoPsOf(200)
	if len(pops) != 2 {
		t.Fatalf("AS200 pops = %v", pops)
	}
	for _, id := range pops {
		if topo.PoP(id).AS != 200 {
			t.Fatal("foreign pop returned")
		}
	}
}
