package platform

import (
	"testing"

	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

func TestFamilyKnobSplitsPlanes(t *testing.T) {
	s, e, p := world(t)
	k := NewKnobs(p, 9)
	src, _ := s.Topo.FindPoP(3741, "Johannesburg")

	// Pin v6 to Transit-B while v4 keeps its default (Transit-A wins the
	// tiebreak). The two families must then use different AS paths to the
	// content network.
	release, err := k.ForceUpstreamFamily(engine.V6, 3741, scenario.ZATransitB)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := p.SpeedTestFamily(src, scenario.BigContent, engine.V4, probe.IntentExperiment, "knob")
	if err != nil {
		t.Fatal(err)
	}
	m6, err := p.SpeedTestFamily(src, scenario.BigContent, engine.V6, probe.IntentExperiment, "knob")
	if err != nil {
		t.Fatal(err)
	}
	if m4.Family != 4 || m6.Family != 6 {
		t.Fatalf("family tags: %d / %d", m4.Family, m6.Family)
	}
	has := func(path []topo.ASN, asn topo.ASN) bool {
		for _, a := range path {
			if a == asn {
				return true
			}
		}
		return false
	}
	if !has(m4.ASPath, scenario.ZATransitA) {
		t.Fatalf("v4 path = %v, want via Transit-A", m4.ASPath)
	}
	if !has(m6.ASPath, scenario.ZATransitB) {
		t.Fatalf("v6 path = %v, want via Transit-B", m6.ASPath)
	}

	// Release: both families converge to the same path again.
	release()
	m6b, err := p.SpeedTestFamily(src, scenario.BigContent, engine.V6, probe.IntentExperiment, "knob")
	if err != nil {
		t.Fatal(err)
	}
	if !has(m6b.ASPath, scenario.ZATransitA) {
		t.Fatalf("v6 path after release = %v", m6b.ASPath)
	}
	// v4 plane was never touched by the family knob.
	if _, ok := e.Policy.LocalPref[3741]; ok {
		t.Fatal("family knob leaked into the v4 policy")
	}
}

func TestFamilyPlaneSharesTopologyEvents(t *testing.T) {
	s, e, p := world(t)
	src, _ := s.Topo.FindPoP(328745, "Johannesburg")
	e.Schedule(engine.EvJoinIXP(2, s.IXPName, 328745, 0))
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	// Both planes should see the new IXP peering (topology is shared).
	for _, fam := range []engine.Family{engine.V4, engine.V6} {
		m, err := p.SpeedTestFamily(src, scenario.BigContent, fam, probe.IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		direct := len(m.ASPath) == 2 && m.ASPath[1] == scenario.BigContent
		if !direct {
			t.Fatalf("family %d did not pick up the IXP peering: %v", fam, m.ASPath)
		}
	}
}

func TestPerfFamilyRejectsUnknown(t *testing.T) {
	s, e, _ := world(t)
	src, _ := s.Topo.FindPoP(3741, "Johannesburg")
	if _, err := e.PerfFamily(src, src, engine.Family(9)); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := e.PolicyFamily(engine.Family(9)); err == nil {
		t.Fatal("unknown family policy accepted")
	}
}
