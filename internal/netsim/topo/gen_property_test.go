package topo

import (
	"fmt"
	"reflect"
	"testing"

	"sisyphus/internal/mathx"
)

// genPropertyConfigs is the table the property tests sweep: legacy shapes,
// synthetic-city shapes, and IXP-enabled shapes with treated access ASes.
var genPropertyConfigs = []struct {
	name string
	cfg  GenConfig
}{
	{"default", DefaultGenConfig()},
	{"minimal", GenConfig{Tier1: 1, Tier2: 1, Access: 1, Content: 1}},
	{"wide-access", GenConfig{Tier1: 2, Tier2: 4, Access: 30, Content: 2, MultihomeProb: 0.7, PeerProb: 0.5}},
	{"synthetic-cities", GenConfig{Tier1: 3, Tier2: 5, Access: 10, Content: 2, Cities: 24, MultihomeProb: 0.4, PeerProb: 0.2}},
	{"ixp", func() GenConfig {
		c := DefaultGenConfig()
		c.IXP = true
		c.Treated = 4
		return c
	}()},
	{"ixp-synthetic", GenConfig{Tier1: 2, Tier2: 4, Access: 8, Content: 3, Cities: 12,
		MultihomeProb: 0.5, PeerProb: 0.3, IXP: true, Treated: 3, IXPCity: "City-005"}},
}

// TestGenerateSameSeedDeepEqual: equal (seed, GenConfig) must produce
// topologies whose exports are reflect.DeepEqual — the property the
// content-addressed gen/<cfghash> world ids stand on.
func TestGenerateSameSeedDeepEqual(t *testing.T) {
	for _, c := range genPropertyConfigs {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 42} {
				a, err := Generate(mathx.NewRNG(seed), c.cfg, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b, err := Generate(mathx.NewRNG(seed), c.cfg, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !reflect.DeepEqual(a.Export(), b.Export()) {
					t.Fatalf("seed %d: same (seed, cfg) generated different topologies", seed)
				}
			}
		})
	}
}

// TestGenerateGaoRexfordValid: every generated internet must satisfy the
// structural conditions Gao–Rexford routing rests on — the tier1s form a
// full peering clique, and the customer→provider graph is acyclic (no AS is
// ever, transitively, its own provider).
func TestGenerateGaoRexfordValid(t *testing.T) {
	for _, c := range genPropertyConfigs {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 42} {
				tp, err := Generate(mathx.NewRNG(seed), c.cfg, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				rel, err := tp.Relationships()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for i := 0; i < c.cfg.Tier1; i++ {
					for j := 0; j < c.cfg.Tier1; j++ {
						if i == j {
							continue
						}
						a, b := ASN(1000+i), ASN(1000+j)
						if rel.Rel[a][b] != RelPeer {
							t.Fatalf("seed %d: tier1 %d-%d not peers", seed, a, b)
						}
					}
				}
				assertNoProviderCycles(t, rel)
			}
		})
	}
}

// assertNoProviderCycles DFS-colors the customer→provider graph and fails
// on any back edge.
func assertNoProviderCycles(t *testing.T, rel *ASRelationships) {
	t.Helper()
	const (
		white = iota // unvisited
		gray         // on the current DFS path
		black        // fully explored
	)
	color := make(map[ASN]int)
	var visit func(a ASN) bool
	visit = func(a ASN) bool {
		color[a] = gray
		for b, k := range rel.Rel[a] {
			if k != RelCustomer { // a is a customer of b: edge a→b
				continue
			}
			switch color[b] {
			case gray:
				return false
			case white:
				if !visit(b) {
					return false
				}
			}
		}
		color[a] = black
		return true
	}
	for a := range rel.Rel {
		if color[a] == white && !visit(a) {
			t.Fatalf("provider cycle through AS%d", a)
		}
	}
}

// TestGenerateASNTierRanges: ASN blocks encode the tier, densely from each
// tier's base — the scenario layer's generated-world casting depends on it.
func TestGenerateASNTierRanges(t *testing.T) {
	for _, c := range genPropertyConfigs {
		t.Run(c.name, func(t *testing.T) {
			tp, err := Generate(mathx.NewRNG(5), c.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[ASN]bool)
			for _, a := range tp.ASes() {
				seen[a.ASN] = true
				var base, n int
				var want ASType
				switch {
				case a.ASN >= 4000:
					base, n, want = 4000, c.cfg.Content, Content
				case a.ASN >= 3000:
					base, n, want = 3000, c.cfg.Access, Access
				case a.ASN >= 2000:
					base, n, want = 2000, c.cfg.Tier2, Transit
				default:
					base, n, want = 1000, c.cfg.Tier1, Transit
				}
				if idx := int(a.ASN) - base; idx < 0 || idx >= n {
					t.Fatalf("AS%d outside its tier block [%d, %d)", a.ASN, base, base+n)
				}
				if a.Type != want {
					t.Fatalf("AS%d type = %v, want %v", a.ASN, a.Type, want)
				}
			}
			for _, block := range []struct{ base, n int }{
				{1000, c.cfg.Tier1}, {2000, c.cfg.Tier2}, {3000, c.cfg.Access}, {4000, c.cfg.Content},
			} {
				for i := 0; i < block.n; i++ {
					if !seen[ASN(block.base+i)] {
						t.Fatalf("tier block %d missing dense ASN %d", block.base, block.base+i)
					}
				}
			}
		})
	}
}

// TestGenerateIXPShape: with cfg.IXP the generated exchange must exist in
// the chosen city with every content AS a founding member, the first
// Treated access ASes must hold a PoP in the exchange city (joinable), and
// founding membership must add exactly the C(content, 2) peer links on top
// of an IXP-free generation from the same seed — proof the IXP extensions
// never consume RNG draws.
func TestGenerateIXPShape(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.IXP = true
	cfg.Treated = 4
	cfg.IXPCity = "Johannesburg"

	plain := cfg
	plain.IXP = false
	plain.Treated = 0
	plain.IXPCity = ""

	for _, seed := range []uint64{1, 7} {
		tp, err := Generate(mathx.NewRNG(seed), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, err := tp.IXP(GenIXPName)
		if err != nil {
			t.Fatal(err)
		}
		if x.City != "Johannesburg" || x.Prefix != GenIXPPrefix {
			t.Fatalf("exchange at %s prefix %s", x.City, x.Prefix)
		}
		if len(x.Members) != cfg.Content {
			t.Fatalf("founding members = %d, want %d", len(x.Members), cfg.Content)
		}
		for i := 0; i < cfg.Content; i++ {
			if x.Members[i] != ASN(4000+i) {
				t.Fatalf("member %d = %d, want content AS %d", i, x.Members[i], 4000+i)
			}
		}
		for i := 0; i < cfg.Treated; i++ {
			if _, err := tp.FindPoP(ASN(3000+i), x.City); err != nil {
				t.Fatalf("treated access AS%d has no PoP at the exchange: %v", 3000+i, err)
			}
		}

		base, err := Generate(mathx.NewRNG(seed), plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantExtra := cfg.Content * (cfg.Content - 1) / 2
		if got := len(tp.links) - len(base.links); got != wantExtra {
			t.Fatalf("IXP generation added %d links, want %d (founding-member peerings only)", got, wantExtra)
		}
	}
}

// scanPoPAddr is PoPAddr as a scan: the PoP's per-AS ordinal counted over
// every PoP before it.
func scanPoPAddr(t *Topology, id PoPID) string {
	p := t.pops[int(id)]
	ord := 0
	for _, q := range t.pops {
		if q.AS != p.AS {
			continue
		}
		if q.ID == id {
			break
		}
		ord++
	}
	return fmt.Sprintf("10.%d.%d.%d", uint32(p.AS)/256, uint32(p.AS)%256, ord+1)
}

// TestPoPAddrMatchesScan: the addresses computed once per core equal the
// per-call scan on every generated shape, and through a frozen topology's
// copy-on-write clone.
func TestPoPAddrMatchesScan(t *testing.T) {
	for _, c := range genPropertyConfigs {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7, 42} {
				g, err := Generate(mathx.NewRNG(seed), c.cfg, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				g.Freeze()
				for _, tp := range []*Topology{g, g.Clone()} {
					for _, p := range tp.pops {
						if got, want := tp.PoPAddr(p.ID), scanPoPAddr(tp, p.ID); got != want {
							t.Fatalf("seed %d: PoPAddr(%d) = %s, scan %s", seed, p.ID, got, want)
						}
					}
				}
			}
		})
	}
}
