package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sisyphus/internal/netsim/topo"
)

func TestGenSpecIDStable(t *testing.T) {
	a, b := DefaultGenSpec(), DefaultGenSpec()
	if a.ID() != b.ID() {
		t.Fatalf("equal specs hash differently: %s vs %s", a.ID(), b.ID())
	}
	if !strings.HasPrefix(a.ID(), GenIDPrefix) {
		t.Fatalf("id %q lacks prefix %q", a.ID(), GenIDPrefix)
	}
	if len(a.ID()) != len(GenIDPrefix)+16 {
		t.Fatalf("id %q not %d hex chars of hash", a.ID(), 16)
	}
	c := DefaultGenSpec()
	c.Seed++
	if c.ID() == a.ID() {
		t.Fatal("different seeds, same id")
	}
	d := DefaultGenSpec()
	d.Config.Access++
	if d.ID() == a.ID() {
		t.Fatal("different configs, same id")
	}
}

func TestRegisterGenIdempotentAndBuildable(t *testing.T) {
	sp := DefaultGenSpec()
	id1, err := RegisterGen(sp)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := RegisterGen(sp)
	if err != nil {
		t.Fatalf("re-registering the same spec: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("idempotent registration returned %s then %s", id1, id2)
	}
	if got, ok := genSpecs[id1]; !ok || got != sp {
		t.Fatalf("registered spec for %s = %+v, %v", id1, got, ok)
	}
	s, err := Build(id1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Treated) != sp.Config.Treated {
		t.Fatalf("treated units = %d, want %d", len(s.Treated), sp.Config.Treated)
	}
	if len(s.Donors) != sp.Config.Access-sp.Config.Treated {
		t.Fatalf("donors = %d, want %d", len(s.Donors), sp.Config.Access-sp.Config.Treated)
	}
	if len(s.ContentASNs) != sp.Config.Content {
		t.Fatalf("content = %d, want %d", len(s.ContentASNs), sp.Config.Content)
	}
	if s.MeasureDst() != topo.ASN(4000) {
		t.Fatalf("measurement destination = %d, want the first content AS", s.MeasureDst())
	}
	// The casting is coherent: treated ASes hold a PoP at the exchange (so
	// they can join), content networks are founding members, and treated and
	// donor pools are disjoint.
	x, err := s.Topo.IXP(s.IXPName)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range s.Treated {
		if _, err := s.Topo.FindPoP(u.ASN, x.City); err != nil {
			t.Fatalf("treated %v cannot reach the exchange: %v", u, err)
		}
	}
	for _, c := range s.ContentASNs {
		if !slices.Contains(x.Members, c) {
			t.Fatalf("content AS%d not a founding member", c)
		}
	}
	treatedSet := map[topo.ASN]bool{}
	for _, u := range s.Treated {
		treatedSet[u.ASN] = true
	}
	for _, u := range s.Donors {
		if treatedSet[u.ASN] {
			t.Fatalf("donor %v is also treated", u)
		}
	}
}

func TestBuildGeneratedDeterministic(t *testing.T) {
	sp := DefaultGenSpec()
	a, err := BuildGenerated(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGenerated(sp)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Export(), b.Export()
	if len(ea.Treated) != len(eb.Treated) || len(ea.Donors) != len(eb.Donors) {
		t.Fatal("same spec cast differently")
	}
	for i := range ea.Treated {
		if ea.Treated[i] != eb.Treated[i] {
			t.Fatalf("treated[%d] differs: %v vs %v", i, ea.Treated[i], eb.Treated[i])
		}
	}
}

func TestValidateGenSpecRejections(t *testing.T) {
	base := DefaultGenSpec()
	cases := []struct {
		name   string
		mutate func(*GenSpec)
	}{
		{"no IXP", func(sp *GenSpec) { sp.Config.IXP = false }},
		{"no content", func(sp *GenSpec) { sp.Config.Content = 0 }},
		{"no treated", func(sp *GenSpec) { sp.Config.Treated = 0 }},
		{"too few donors", func(sp *GenSpec) { sp.Config.Treated = sp.Config.Access - 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := base
			c.mutate(&sp)
			if _, err := RegisterGen(sp); err == nil {
				t.Fatal("invalid spec registered")
			}
			if _, err := BuildGenerated(sp); err == nil {
				t.Fatal("invalid spec built")
			}
		})
	}
}

func TestParseGenSpec(t *testing.T) {
	sp, err := ParseGenSpec("gen:")
	if err != nil {
		t.Fatal(err)
	}
	if sp != DefaultGenSpec() {
		t.Fatalf("bare gen: = %+v, want defaults", sp)
	}

	sp, err = ParseGenSpec("gen:access=20+treated=5+seed=9+cities=16+multihome=0.25+ixpcity=City-002")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultGenSpec()
	want.Config.Access = 20
	want.Config.Treated = 5
	want.Config.Cities = 16
	want.Config.MultihomeProb = 0.25
	want.Config.IXPCity = "City-002"
	want.Seed = 9
	if sp != want {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}

	for _, bad := range []string{
		"notgen:",             // wrong prefix
		"gen:access",          // no value
		"gen:=5",              // no key
		"gen:access=x",        // non-numeric count
		"gen:access=-1",       // negative count
		"gen:peer=1.5",        // probability out of range
		"gen:seed=-3",         // negative seed
		"gen:bogus=1",         // unknown key
		"gen:access=5+",       // trailing separator
		"gen:access=5,b=1",    // comma is not the pair separator
		"gen:access=10000000", // count over GenMaxCount
		"gen:cities=65",       // count over GenMaxCount
		"gen:multihome=NaN",   // NaN probability: the spec could not hash
	} {
		if _, err := ParseGenSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), "gen:") {
			t.Fatalf("spec %q error %q does not carry the grammar", bad, err)
		}
	}
}

// TestParseGenSpecCountCap: every count key stops at GenMaxCount, the error
// names the cap, and the defaults sit inside it.
func TestParseGenSpecCountCap(t *testing.T) {
	for _, k := range []string{"tier1", "tier2", "access", "content", "treated", "cities"} {
		if _, err := ParseGenSpec(fmt.Sprintf("gen:%s=%d", k, GenMaxCount)); err != nil {
			t.Errorf("%s=%d (at the cap) refused: %v", k, GenMaxCount, err)
		}
		_, err := ParseGenSpec(fmt.Sprintf("gen:%s=%d", k, GenMaxCount+1))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(GenMaxCount)) {
			t.Errorf("%s=%d: error %v does not name the cap %d", k, GenMaxCount+1, err, GenMaxCount)
		}
	}
	if err := genCountsWithinCap(DefaultGenSpec()); err != nil {
		t.Errorf("default spec: %v", err)
	}
}

func TestResolveID(t *testing.T) {
	if id, err := ResolveID(SouthAfricaID); err != nil || id != SouthAfricaID {
		t.Fatalf("known id resolve = %q, %v", id, err)
	}
	id, err := ResolveID("gen:access=9+treated=2+seed=11")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, GenIDPrefix) {
		t.Fatalf("gen spec resolved to %q", id)
	}
	if !Registered(id) {
		t.Fatalf("resolved id %q not registered", id)
	}
	if _, err := ResolveID("nosuch"); err == nil {
		t.Fatal("unknown token resolved")
	}
	if _, err := ResolveID("gen:bogus=1"); err == nil {
		t.Fatal("malformed gen spec resolved")
	}
}

func TestGeneratedWorldCodecRoundTrip(t *testing.T) {
	sp := DefaultGenSpec()
	s, err := BuildGenerated(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Export(), s.Export(); !exportsEqual(got, want) {
		t.Fatal("generated world changed across Export/Import")
	}
	if back.MeasureDst() != s.MeasureDst() {
		t.Fatal("measurement destination changed across the codec")
	}
}

// exportsEqual compares two scenario exports field by field (topology via
// its own export equality).
func exportsEqual(a, b *Export) bool {
	if a.IXPName != b.IXPName || a.IXPPrefix != b.IXPPrefix {
		return false
	}
	eqU := func(x, y []Unit) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqA := func(x, y []topo.ASN) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eqU(a.Treated, b.Treated) && eqU(a.Donors, b.Donors) &&
		eqA(a.ContentASNs, b.ContentASNs) && eqA(a.TreatedASNs, b.TreatedASNs) &&
		eqA(a.MLabServerASNs, b.MLabServerASNs)
}
