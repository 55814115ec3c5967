package scenario

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/parallel"
)

func TestBuildSouthAfrica(t *testing.T) {
	s, err := BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Treated) != 8 {
		t.Fatalf("treated units = %d want 8 (Table 1 rows)", len(s.Treated))
	}
	if len(s.Donors) < 10 {
		t.Fatalf("donor pool = %d, want a usable donor pool", len(s.Donors))
	}
	// Every unit has a measurable user PoP.
	for _, u := range s.AllUnits() {
		if _, err := s.UserPoP(u); err != nil {
			t.Fatalf("unit %v: %v", u, err)
		}
	}
	// Content networks are exchange members from the start.
	x, err := s.Topo.IXP(s.IXPName)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.ContentASNs {
		if !slices.Contains(x.Members, c) {
			t.Fatalf("content AS%d is not an IXP member", c)
		}
	}
}

func TestSouthAfricaRoutesAreDomesticPreJoin(t *testing.T) {
	s, err := BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	rib, err := bgp.Compute(context.Background(), parallel.Pool{}, s.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every treated unit reaches BigContent without tromboning: RTT-scale
	// propagation must stay well under intercontinental levels.
	for _, u := range s.Treated {
		src, _ := s.UserPoP(u)
		dst, err := rib.NearestPoP(src, BigContent)
		if err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		p, err := rib.Forward(src, dst)
		if err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		if p.PropagationMs() > 30 {
			t.Fatalf("unit %v trombones: %.1f ms propagation via %v", u, p.PropagationMs(), p.ASPath)
		}
	}
}

func TestSouthAfricaJoinShiftsPathsOntoIXP(t *testing.T) {
	s, err := BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(s.Topo, 9, engine.Config{})
	for _, asn := range s.TreatedASNs {
		e.Schedule(engine.EvJoinIXP(10, s.IXPName, asn, 0.05))
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	rib, err := e.RIB()
	if err != nil {
		t.Fatal(err)
	}
	crossings := 0
	for _, u := range s.Treated {
		src, _ := s.UserPoP(u)
		dst, err := rib.NearestPoP(src, BigContent)
		if err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		p, err := rib.Forward(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range p.Hops {
			if h.Link != nil && h.Link.IXP == s.IXPName {
				crossings++
				break
			}
		}
	}
	if crossings < 6 {
		t.Fatalf("only %d/8 treated units cross the IXP after joining", crossings)
	}
}

func TestSouthAfricaDonorsNeverCrossIXP(t *testing.T) {
	s, err := BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(s.Topo, 9, engine.Config{})
	for _, asn := range s.TreatedASNs {
		e.Schedule(engine.EvJoinIXP(10, s.IXPName, asn, 0.05))
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	rib, _ := e.RIB()
	for _, u := range s.Donors {
		src, _ := s.UserPoP(u)
		dst, err := rib.NearestPoP(src, BigContent)
		if err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		p, err := rib.Forward(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range p.Hops {
			if h.Link != nil && h.Link.IXP == s.IXPName {
				t.Fatalf("donor %v crosses the IXP via %v", u, p.ASPath)
			}
		}
	}
}

func TestUnitString(t *testing.T) {
	u := Unit{3741, "East London"}
	if !strings.Contains(u.String(), "3741") || !strings.Contains(u.String(), "East London") {
		t.Fatalf("unit string = %q", u.String())
	}
}

func TestBuildTromboneEra(t *testing.T) {
	s, err := BuildTromboneEra()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Treated) != 8 || len(s.Donors) < 10 {
		t.Fatalf("units: %d treated, %d donors", len(s.Treated), len(s.Donors))
	}
	// Pre-join, every unit trombones: propagation to content is
	// intercontinental even for Johannesburg users.
	rib, err := bgp.Compute(context.Background(), parallel.Pool{}, s.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range s.AllUnits() {
		src, _ := s.UserPoP(u)
		dst, err := rib.NearestPoP(src, BigContent)
		if err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		p, err := rib.Forward(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if p.PropagationMs() < 50 {
			t.Fatalf("unit %v does not trombone: %.1f ms via %v", u, p.PropagationMs(), p.ASPath)
		}
	}
	// Post-join, a treated unit reaches the JNB cache locally.
	if _, err := s.Topo.JoinIXP(s.IXPName, 328745); err != nil {
		t.Fatal(err)
	}
	rib2, _ := bgp.Compute(context.Background(), parallel.Pool{}, s.Topo, nil)
	src, _ := s.Topo.FindPoP(328745, "Johannesburg")
	dst, err := rib2.NearestPoP(src, BigContent)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rib2.Forward(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if p.PropagationMs() > 10 {
		t.Fatalf("post-join path still trombones: %.1f ms", p.PropagationMs())
	}
}
