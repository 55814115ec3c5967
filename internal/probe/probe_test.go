package probe

import (
	"strings"
	"testing"

	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
)

func testWorld(t *testing.T) (*scenario.World, *engine.Engine, *Prober) {
	t.Helper()
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(s.Topo, 5, engine.Config{})
	return s, e, NewProber(e, 6)
}

func TestMeasuredRTTAddsPositiveJitter(t *testing.T) {
	s, e, p := testWorld(t)
	src, _ := s.Topo.FindPoP(3741, "East London")
	rib, _ := e.RIB()
	target, err := rib.NearestPoP(src, scenario.BigContent)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m, err := p.Traceroute(src, target, IntentBaseline, "test")
		if err != nil {
			t.Fatal(err)
		}
		if m.RTTms < m.TrueRTTms {
			t.Fatalf("measured %v below truth %v", m.RTTms, m.TrueRTTms)
		}
		if m.RTTms > m.TrueRTTms+20 {
			t.Fatalf("jitter implausibly large: %v vs %v", m.RTTms, m.TrueRTTms)
		}
	}
}

func TestTracerouteHops(t *testing.T) {
	s, e, p := testWorld(t)
	src, _ := s.Topo.FindPoP(37053, "Cape Town")
	rib, _ := e.RIB()
	target, _ := rib.NearestPoP(src, scenario.BigContent)
	m, err := p.Traceroute(src, target, IntentBaseline, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hops) < 2 {
		t.Fatalf("hops = %d", len(m.Hops))
	}
	// TTLs increase, addresses non-empty, final hop is the destination AS.
	for i, h := range m.Hops {
		if h.TTL != i+1 {
			t.Fatalf("ttl[%d] = %d", i, h.TTL)
		}
		if h.Addr == "" {
			t.Fatal("empty hop address")
		}
	}
	last := m.Hops[len(m.Hops)-1]
	if last.ASN != scenario.BigContent {
		t.Fatalf("last hop AS = %d", last.ASN)
	}
	if last.RTTms > m.RTTms {
		t.Fatalf("hop rtt %v exceeds end-to-end %v", last.RTTms, m.RTTms)
	}
	// AS path starts at the source AS.
	if m.ASPath[0] != 37053 {
		t.Fatalf("as path = %v", m.ASPath)
	}
}

func TestSpeedTestProducesThroughputAndHops(t *testing.T) {
	s, _, p := testWorld(t)
	src, _ := s.Topo.FindPoP(328745, "Johannesburg")
	m, err := p.SpeedTest(src, scenario.BigContent, IntentUserInitiated, "user")
	if err != nil {
		t.Fatal(err)
	}
	if m.ThroughputMbps <= 0 {
		t.Fatalf("throughput = %v", m.ThroughputMbps)
	}
	if len(m.Hops) == 0 {
		t.Fatal("speed test must attach a traceroute (NDT behaviour)")
	}
	if m.Intent != IntentUserInitiated || m.Trigger != "user" {
		t.Fatalf("tagging lost: %v %v", m.Intent, m.Trigger)
	}
	if m.SrcASN != 328745 || m.DstASN != scenario.BigContent {
		t.Fatalf("endpoints: %v -> %v", m.SrcASN, m.DstASN)
	}
}

func TestIXPHopVisibleAfterJoin(t *testing.T) {
	s, e, p := testWorld(t)
	for _, asn := range s.TreatedASNs {
		e.Schedule(engine.EvJoinIXP(5, s.IXPName, asn, 0))
	}
	src, _ := s.Topo.FindPoP(328745, "Johannesburg")

	before, err := p.SpeedTest(src, scenario.BigContent, IntentBaseline, "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range before.Hops {
		if strings.HasPrefix(h.Addr, s.IXPPrefix) {
			t.Fatalf("IXP hop before join: %v", h)
		}
	}
	if err := e.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	after, err := p.SpeedTest(src, scenario.BigContent, IntentBaseline, "t")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range after.Hops {
		if strings.HasPrefix(h.Addr, s.IXPPrefix) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no IXP hop after join; hops: %+v", after.Hops)
	}
}

func TestMeasurementIDsIncrease(t *testing.T) {
	s, _, p := testWorld(t)
	src, _ := s.Topo.FindPoP(16637, "Pretoria")
	a, err := p.SpeedTest(src, scenario.BigContent, IntentBaseline, "t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SpeedTest(src, scenario.BigContent, IntentBaseline, "t")
	if err != nil {
		t.Fatal(err)
	}
	if b.ID <= a.ID {
		t.Fatalf("ids: %d then %d", a.ID, b.ID)
	}
}

func TestMeasurementString(t *testing.T) {
	m := &Measurement{Intent: IntentBaseline, SrcASN: 1, SrcCity: "X", DstASN: 2, DstCity: "Y", RTTms: 3.14}
	s := m.String()
	if !strings.Contains(s, "AS1/X") || !strings.Contains(s, "3.14") {
		t.Fatalf("string = %q", s)
	}
}

func TestProberDeterminism(t *testing.T) {
	s1, e1 := mustWorld(t)
	s2, e2 := mustWorld(t)
	p1 := NewProber(e1, 42)
	p2 := NewProber(e2, 42)
	src1, _ := s1.Topo.FindPoP(3741, "East London")
	src2, _ := s2.Topo.FindPoP(3741, "East London")
	for i := 0; i < 10; i++ {
		a, err := p1.SpeedTest(src1, scenario.BigContent, IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		b, err := p2.SpeedTest(src2, scenario.BigContent, IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		if a.RTTms != b.RTTms || a.ThroughputMbps != b.ThroughputMbps {
			t.Fatal("same seeds diverged")
		}
	}
}

func mustWorld(t *testing.T) (*scenario.World, *engine.Engine) {
	t.Helper()
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	return s, engine.New(s.Topo, 5, engine.Config{})
}

func TestUnreachableErrors(t *testing.T) {
	s, _, p := testWorld(t)
	src, _ := s.Topo.FindPoP(3741, "East London")
	if _, err := p.SpeedTest(src, topo.ASN(99999), IntentBaseline, "t"); err == nil {
		t.Fatal("speed test to unknown AS accepted")
	}
}

func TestFamilyAndIDsAcrossKinds(t *testing.T) {
	s, e, p := testWorld(t)
	src, _ := s.Topo.FindPoP(37680, "Durban")
	rib, _ := e.RIB()
	dst, _ := rib.NearestPoP(src, scenario.BigContent)
	speed, err := p.SpeedTest(src, scenario.BigContent, IntentBaseline, "t")
	if err != nil {
		t.Fatal(err)
	}
	if speed.Family != 4 {
		t.Fatalf("default family = %d", speed.Family)
	}
	tr, err := p.Traceroute(src, dst, IntentTriggered, "bgp")
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID <= speed.ID {
		t.Fatal("IDs not monotone across measurement kinds")
	}
	if tr.Intent != IntentTriggered {
		t.Fatalf("intent = %v", tr.Intent)
	}
}

func TestSpeedTestFamilyTagsAndRoutes(t *testing.T) {
	s, _, p := testWorld(t)
	src, _ := s.Topo.FindPoP(37680, "Durban")
	m6, err := p.SpeedTestFamily(src, scenario.BigContent, engine.V6, IntentExperiment, "knob")
	if err != nil {
		t.Fatal(err)
	}
	if m6.Family != 6 {
		t.Fatalf("family = %d", m6.Family)
	}
	if len(m6.Hops) == 0 || m6.ThroughputMbps <= 0 {
		t.Fatal("v6 speed test incomplete")
	}
	// With identical policies both families route the same.
	m4, err := p.SpeedTestFamily(src, scenario.BigContent, engine.V4, IntentExperiment, "knob")
	if err != nil {
		t.Fatal(err)
	}
	if len(m4.ASPath) != len(m6.ASPath) {
		t.Fatalf("families diverged without overrides: %v vs %v", m4.ASPath, m6.ASPath)
	}
	if _, err := p.SpeedTestFamily(src, scenario.BigContent, engine.Family(9), IntentExperiment, "x"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestTracerouteHopRTTMonotonicityProperty(t *testing.T) {
	s, e, p := testWorld(t)
	rib, _ := e.RIB()
	for _, u := range s.AllUnits() {
		src, err := s.UserPoP(u)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := rib.NearestPoP(src, scenario.BigContent)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Traceroute(src, dst, IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		// Hop RTTs based on cumulative propagation (modulo jitter) should
		// never exceed the end-to-end measurement.
		last := m.Hops[len(m.Hops)-1]
		if last.RTTms > m.RTTms+1e-9 {
			t.Fatalf("unit %v: last hop %v > e2e %v", u, last.RTTms, m.RTTms)
		}
	}
}
