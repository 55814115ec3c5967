package topo

import (
	"testing"
	"testing/quick"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/geo"
)

func TestGenerateDefaultShape(t *testing.T) {
	r := mathx.NewRNG(1)
	cfg := DefaultGenConfig()
	tp, err := Generate(r, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ases := tp.ASes()
	if len(ases) != cfg.Tier1+cfg.Tier2+cfg.Access+cfg.Content {
		t.Fatalf("as count = %d", len(ases))
	}
	var access, transit, content int
	for _, a := range ases {
		switch a.Type {
		case Access:
			access++
		case Transit:
			transit++
		case Content:
			content++
		}
	}
	if access != cfg.Access || content != cfg.Content || transit != cfg.Tier1+cfg.Tier2 {
		t.Fatalf("type mix: access=%d transit=%d content=%d", access, transit, content)
	}
	// Tier1 clique: every tier1 pair adjacent as peers.
	rel, err := tp.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Tier1; i++ {
		for j := 0; j < cfg.Tier1; j++ {
			if i == j {
				continue
			}
			a, b := ASN(1000+i), ASN(1000+j)
			if rel.Rel[a][b] != RelPeer {
				t.Fatalf("tier1 %d-%d not peers: %v", a, b, rel.Rel[a][b])
			}
		}
	}
	// Every non-tier1 AS has at least one provider.
	for _, as := range ases {
		if as.ASN < 2000 {
			continue
		}
		hasProvider := false
		for _, k := range rel.Rel[as.ASN] {
			if k == RelCustomer {
				hasProvider = true
			}
		}
		if !hasProvider {
			t.Fatalf("AS%d has no provider", as.ASN)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	gen := func(seed uint64) [][2]string {
		tp, err := Generate(mathx.NewRNG(seed), DefaultGenConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [][2]string
		for _, l := range tp.links {
			a, b := tp.PoP(l.A), tp.PoP(l.B)
			out = append(out, [2]string{a.City, b.City})
		}
		return out
	}
	a, b := gen(9), gen(9)
	if len(a) != len(b) {
		t.Fatal("link counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	r := mathx.NewRNG(2)
	small := geo.NewRegistry()
	small.Add(geo.City{Name: "X"})
	if _, err := Generate(r, DefaultGenConfig(), small); err == nil {
		t.Fatal("tiny registry accepted")
	}
	if _, err := Generate(r, GenConfig{Tier1: 0, Tier2: 1, Access: 1}, nil); err == nil {
		t.Fatal("zero tier1 accepted")
	}
}

func TestGenerateAlwaysBuildsValidTopology(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		cfg := GenConfig{
			Tier1: 1 + r.Intn(4), Tier2: 1 + r.Intn(6), Access: 1 + r.Intn(15),
			Content: r.Intn(4), MultihomeProb: r.Float64(), PeerProb: r.Float64(),
		}
		tp, err := Generate(r, cfg, nil)
		if err != nil {
			return false
		}
		// Relationship derivation must succeed (no conflicting pairs) and
		// every link must have positive delay and capacity.
		if _, err := tp.Relationships(); err != nil {
			return false
		}
		for _, l := range tp.links {
			if l.DelayMs <= 0 || l.CapacityMbps <= 0 {
				return false
			}
			if l.BaseUtil < 0 || l.BaseUtil >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMeetingPoint(t *testing.T) {
	a, b := meetingPoint([]string{"London", "Paris"}, []string{"Paris", "Frankfurt"})
	if a != "Paris" || b != "Paris" {
		t.Fatalf("shared city not chosen: %s/%s", a, b)
	}
	a, b = meetingPoint([]string{"London"}, []string{"Frankfurt"})
	if a != "London" || b != "Frankfurt" {
		t.Fatalf("disjoint fallback: %s/%s", a, b)
	}
}
