package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
)

// zaTopo reproduces the trombone scenario with an IXP available in
// Johannesburg and a second transit for adaptive-egress tests.
func zaTopo(t testing.TB) *topo.Topology {
	b := topo.NewBuilder(nil).
		AddAS(100, "EuroTier1", topo.Transit, "London", "Johannesburg").
		AddAS(200, "ZATransitA", topo.Transit, "Johannesburg").
		AddAS(201, "ZATransitB", topo.Transit, "Johannesburg").
		AddAS(3741, "Access", topo.Access, "East London", "Johannesburg").
		AddAS(300, "Content", topo.Content, "London", "Johannesburg").
		Connect(200, "Johannesburg", topo.CustomerOf, 100, "Johannesburg", topo.WithBaseUtil(0.45)).
		Connect(201, "Johannesburg", topo.CustomerOf, 100, "Johannesburg", topo.WithBaseUtil(0.3)).
		Connect(3741, "Johannesburg", topo.CustomerOf, 200, "Johannesburg", topo.WithBaseUtil(0.5)).
		Connect(3741, "Johannesburg", topo.CustomerOf, 201, "Johannesburg", topo.WithBaseUtil(0.3)).
		Connect(300, "London", topo.CustomerOf, 100, "London", topo.WithBaseUtil(0.4)).
		AddIXP("NAPAfrica-JNB", "Johannesburg", "196.60.8.")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestPerfBasicRTT(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	src, _ := tp.FindPoP(3741, "Johannesburg")
	dst, _ := tp.FindPoP(300, "London")
	perf, err := e.Perf(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// JNB->London RTT should be >= 2 * ~58ms propagation.
	if perf.RTTms < 110 || perf.RTTms > 250 {
		t.Fatalf("RTT = %v ms", perf.RTTms)
	}
	if perf.ThroughputMbps <= 0 {
		t.Fatalf("throughput = %v", perf.ThroughputMbps)
	}
	if perf.MaxUtil <= 0 || perf.MaxUtil >= 1 {
		t.Fatalf("max util = %v", perf.MaxUtil)
	}
}

func TestStepFiresEventsInOrder(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	var fired []string
	mk := func(h float64, name string) Event {
		return Event{AtHour: h, Name: name, Apply: func(*Engine) error {
			fired = append(fired, name)
			return nil
		}}
	}
	e.Schedule(mk(5, "b"))
	e.Schedule(mk(2, "a"))
	e.Schedule(mk(9, "c"))
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if strings.Join(fired, ",") != "a,b,c" {
		t.Fatalf("fired = %v", fired)
	}
	if got := e.eventLg; len(got) != 3 {
		t.Fatalf("event log = %v", got)
	}
	if e.Hour() != 10 || e.step != 10 {
		t.Fatalf("clock = %v / %v", e.Hour(), e.step)
	}
}

// TestStepStopsOnCancelledContext: Step is the simulation loop's
// cancellation point. Once the bound context is cancelled it returns
// context.Canceled before touching anything: the clock, the step count and
// the event queue stay where they were, and no event fires.
func TestStepStopsOnCancelledContext(t *testing.T) {
	tp := zaTopo(t)
	ctx, cancel := context.WithCancel(context.Background())
	e := New(tp, 1, Config{AdaptiveEgress: true}).Bind(ctx)
	fired := 0
	e.Schedule(Event{AtHour: 3, Name: "due", Apply: func(*Engine) error { fired++; return nil }})
	if err := e.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	cancel()
	for i := 0; i < 3; i++ {
		if err := e.Step(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Step on a cancelled context = %v, want context.Canceled", err)
		}
	}
	if e.Hour() != 2 || e.step != 2 || e.fired != 0 || fired != 0 || len(e.eventLg) != 0 {
		t.Fatalf("cancelled Step moved the engine: hour %v, step %d, fired %d/%d, log %v",
			e.Hour(), e.step, e.fired, fired, e.eventLg)
	}
}

func TestIXPJoinEventReducesRTT(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	e.Schedule(EvJoinIXP(10, "NAPAfrica-JNB", 300, 0))
	e.Schedule(EvJoinIXP(10, "NAPAfrica-JNB", 3741, 0.1))
	src, _ := tp.FindPoP(3741, "East London")

	if err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	before, err := e.PerfToAS(src, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	after, err := e.PerfToAS(src, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !(after.RTTms < before.RTTms-50) {
		t.Fatalf("IXP join: before %v ms, after %v ms", before.RTTms, after.RTTms)
	}
	// The new path must cross the IXP LAN link.
	foundIXP := false
	for _, h := range after.Path.Hops {
		if h.Link != nil && h.Link.IXP == "NAPAfrica-JNB" {
			foundIXP = true
		}
	}
	if !foundIXP {
		t.Fatal("post-join path does not cross the IXP")
	}
}

// TestJoinIXPOfMemberCustomerRoutes: on a generated world, a tier-1 that
// sells transit to an exchange member joins the exchange, then a tier-2
// customer of that tier-1 does. Each keeps its transit relationship and
// peers over the LAN with the members it has no transit link with, so the
// engine still routes: the tier-2 reaches a content member over the
// exchange.
func TestJoinIXPOfMemberCustomerRoutes(t *testing.T) {
	for seed := uint64(1); seed < 200; seed++ {
		cfg := topo.DefaultGenConfig()
		cfg.IXP, cfg.Cities = true, 6
		tp, err := topo.Generate(mathx.NewRNG(seed), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ixp := tp.IXPs()[0]
		rel, err := tp.Relationships()
		if err != nil {
			t.Fatal(err)
		}
		inCity := func(a topo.ASN) bool { _, err := tp.FindPoP(a, ixp.City); return err == nil }
		var tier1, tier2, member topo.ASN
		for _, m := range ixp.Members {
			for p, k := range rel.Rel[m] {
				if k == topo.RelCustomer && p < 2000 && inCity(p) && (tier1 == 0 || p < tier1) {
					tier1, member = p, m
				}
			}
		}
		for _, as := range tp.ASes() {
			if a := as.ASN; tier1 != 0 && tier2 == 0 && a >= 2000 && a < 3000 && inCity(a) && rel.Rel[a][tier1] == topo.RelCustomer {
				tier2 = a
			}
		}
		if tier2 == 0 {
			continue
		}
		e := New(tp, seed, Config{})
		e.Schedule(EvJoinIXP(1, ixp.Name, tier1, 0.02))
		e.Schedule(EvJoinIXP(2, ixp.Name, tier2, 0.02))
		if err := e.RunUntil(3); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rib, err := e.RIB()
		if err != nil {
			t.Fatalf("seed %d: joining AS%d then AS%d broke routing: %v", seed, tier1, tier2, err)
		}
		if rib.Rel.Rel[member][tier1] != topo.RelCustomer || rib.Rel.Rel[tier2][tier1] != topo.RelCustomer {
			t.Fatalf("seed %d: transit relationships changed: AS%d->AS%d %v, AS%d->AS%d %v",
				seed, member, tier1, rib.Rel.Rel[member][tier1], tier2, tier1, rib.Rel.Rel[tier2][tier1])
		}
		src, err := tp.FindPoP(tier2, ixp.City)
		if err != nil {
			t.Fatal(err)
		}
		perf, err := e.PerfToAS(src, member)
		if err != nil {
			t.Fatalf("seed %d: AS%d cannot reach member AS%d: %v", seed, tier2, member, err)
		}
		crosses := false
		for _, h := range perf.Path.Hops {
			crosses = crosses || (h.Link != nil && h.Link.IXP == ixp.Name)
		}
		if !crosses {
			t.Fatalf("seed %d: AS%d reaches member AS%d over %v, not the exchange", seed, tier2, member, perf.Path.ASPath)
		}
		return
	}
	t.Fatal("no generated world with a tier-1 member provider and a tier-2 customer of it at the exchange")
}

func TestMaintenanceWindowRemovesAndRestores(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	rel, _ := tp.Relationships()
	linkVia200 := rel.Links[3741][200][0]
	start, end := EvMaintenance(10, 5, linkVia200)
	e.Schedule(start)
	e.Schedule(end)
	src, _ := tp.FindPoP(3741, "Johannesburg")

	if err := e.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	perf, err := e.PerfToAS(src, 300)
	if err != nil {
		t.Fatal(err)
	}
	if perf.Path.CrossesLink(linkVia200) {
		t.Fatal("path uses link under maintenance")
	}
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PerfToAS(src, 300); err != nil {
		t.Fatal(err)
	}
	if len(e.Policy.DenyLink) != 0 {
		t.Fatal("maintenance not cleaned up")
	}
}

func TestLinkDownUpEvents(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	rel, _ := tp.Relationships()
	id := rel.Links[3741][200][0]
	e.Schedule(EvLinkDown(3, id))
	e.Schedule(EvLinkUp(6, id))
	if err := e.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if tp.Link(id).Up {
		t.Fatal("link still up")
	}
	if err := e.RunUntil(7); err != nil {
		t.Fatal(err)
	}
	if !tp.Link(id).Up {
		t.Fatal("link not restored")
	}
}

func TestAdaptiveEgressSwitchesUnderCongestion(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{AdaptiveEgress: true})
	rel, _ := tp.Relationships()
	linkVia200 := rel.Links[3741][200][0]
	// Flash crowd saturates the AS200 link.
	e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: linkVia200, StartHour: 5, Hours: 30, Magnitude: 0.5})

	src, _ := tp.FindPoP(3741, "Johannesburg")
	sawSwitch := false
	for e.Hour() < 30 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		perf, err := e.PerfToAS(src, 300)
		if err != nil {
			t.Fatal(err)
		}
		if e.Hour() > 8 && !perf.Path.CrossesLink(linkVia200) {
			sawSwitch = true
		}
	}
	if !sawSwitch {
		t.Fatal("adaptive egress never moved off the congested provider")
	}
	log := strings.Join(e.eventLg, ";")
	if !strings.Contains(log, "egress-shift AS3741") {
		t.Fatalf("no egress shift logged: %s", log)
	}
}

func TestDeterministicReplayAndCounterfactual(t *testing.T) {
	run := func(withJoin bool) []float64 {
		tp := zaTopo(t)
		e := New(tp, 777, Config{})
		if withJoin {
			e.Schedule(EvJoinIXP(24, "NAPAfrica-JNB", 300, 0))
			e.Schedule(EvJoinIXP(24, "NAPAfrica-JNB", 3741, 0))
		}
		src, _ := tp.FindPoP(3741, "Johannesburg")
		var rtts []float64
		for e.Hour() < 48 {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			perf, err := e.PerfToAS(src, 300)
			if err != nil {
				t.Fatal(err)
			}
			rtts = append(rtts, perf.RTTms)
		}
		return rtts
	}
	a := run(true)
	b := run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Counterfactual: identical until the join fires, divergent after.
	c := run(false)
	for i := 0; i < 23; i++ {
		if a[i] != c[i] {
			t.Fatalf("pre-treatment divergence at step %d", i)
		}
	}
	post := a[30] - c[30]
	if math.Abs(post) < 50 {
		t.Fatalf("counterfactual contrast too small: %v", post)
	}
}

func TestEventErrorPropagates(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	e.Schedule(EvJoinIXP(1, "NoSuchIXP", 300, 0))
	if err := e.RunUntil(2); err == nil {
		t.Fatal("event error swallowed")
	}
}

func TestEvSetLocalPref(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	e.Schedule(EvSetLocalPref(2, 3741, 200, 50))
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	src, _ := tp.FindPoP(3741, "Johannesburg")
	perf, err := e.PerfToAS(src, 300)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := tp.Relationships()
	if perf.Path.CrossesLink(rel.Links[3741][200][0]) {
		t.Fatal("depreffed provider still used")
	}
}
