package platform

import (
	"math"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/probe"
)

func world(t *testing.T) (*scenario.World, *engine.Engine, *probe.Prober) {
	t.Helper()
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(s.Topo, 11, engine.Config{})
	return s, e, probe.NewProber(e, 12)
}

func TestStoreBasics(t *testing.T) {
	s, _, p := world(t)
	st := NewStore()
	src, _ := s.Topo.FindPoP(3741, "East London")
	for i := 0; i < 5; i++ {
		m, err := p.SpeedTest(src, scenario.BigContent, probe.IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		st.Add(m)
	}
	m, _ := p.SpeedTest(src, scenario.BigContent, probe.IntentUserInitiated, "user")
	st.Add(m)
	if st.Len() != 6 {
		t.Fatalf("len = %d", st.Len())
	}
	if got := len(st.ByIntent(probe.IntentBaseline)); got != 5 {
		t.Fatalf("baseline = %d", got)
	}
	units := st.Units()
	if len(units) != 1 || units[0].ASN != 3741 || units[0].City != "East London" {
		t.Fatalf("units = %v", units)
	}
}

func TestFrameColumns(t *testing.T) {
	s, _, p := world(t)
	src, _ := s.Topo.FindPoP(16637, "Pretoria")
	var ms []*probe.Measurement
	for i := 0; i < 3; i++ {
		m, err := p.SpeedTest(src, scenario.BigContent, probe.IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	f := Frame(ms)
	if f.Len() != 3 {
		t.Fatalf("frame len = %d", f.Len())
	}
	for _, col := range []string{"hour", "src_asn", "rtt_ms", "tput_mbps", "true_rtt_ms", "true_max_util"} {
		if !f.Has(col) {
			t.Fatalf("missing column %s", col)
		}
	}
	if f.MustColumn("src_asn")[0] != 16637 {
		t.Fatal("asn column wrong")
	}
}

func TestMedianRTTSeriesBinningAndInterpolation(t *testing.T) {
	mk := func(hour, rtt float64) *probe.Measurement {
		return &probe.Measurement{Hour: hour, SrcASN: 1, SrcCity: "X", RTTms: rtt}
	}
	u := Unit{1, "X"}
	ms := []*probe.Measurement{
		mk(0.5, 10), mk(0.7, 12), // bin 0: median 11
		// bin 1 empty
		mk(2.2, 20), // bin 2
		// bins 3,4 empty (tail: carry forward)
	}
	series, empty := MedianRTTSeries(ms, u, 0, 5, 1)
	if len(series) != 5 {
		t.Fatalf("series = %v", series)
	}
	if series[0] != 11 {
		t.Fatalf("bin0 = %v", series[0])
	}
	if series[1] != 15.5 { // interpolated between 11 and 20
		t.Fatalf("bin1 = %v", series[1])
	}
	if series[2] != 20 || series[3] != 20 || series[4] != 20 {
		t.Fatalf("tail = %v", series)
	}
	if len(empty) != 3 {
		t.Fatalf("empty bins = %v", empty)
	}
	// Measurements from other units are ignored.
	other := append(ms, &probe.Measurement{Hour: 1.5, SrcASN: 2, SrcCity: "Y", RTTms: 999})
	series2, _ := MedianRTTSeries(other, u, 0, 5, 1)
	if series2[1] != 15.5 {
		t.Fatal("foreign unit leaked into series")
	}
	// Leading gap carries backward.
	late := []*probe.Measurement{mk(3.5, 30)}
	series3, _ := MedianRTTSeries(late, u, 0, 5, 1)
	if series3[0] != 30 {
		t.Fatalf("leading carry = %v", series3)
	}
}

func TestMLabPoolRandomizesAcrossServers(t *testing.T) {
	s, _, p := world(t)
	var servers []topo.PoPID
	for _, asn := range s.MLabServerASNs {
		id, err := s.Topo.FindPoP(asn, "Johannesburg")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, id)
	}
	pool, err := NewMLabPool("jnb", servers, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMLabPool("x", nil, 1); err == nil {
		t.Fatal("empty pool accepted")
	}
	src, _ := s.Topo.FindPoP(328745, "Johannesburg")
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		m, idx, err := pool.RunTest(p, src)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
		if m.Intent != probe.IntentExperiment || m.Server == "" {
			t.Fatalf("tagging: %v %q", m.Intent, m.Server)
		}
	}
	// Both servers used roughly evenly.
	if counts[0] < 60 || counts[1] < 60 {
		t.Fatalf("assignment skewed: %v", counts)
	}
}

func TestUserModelColliderBehaviour(t *testing.T) {
	s, e, p := world(t)
	src, _ := s.Topo.FindPoP(327966, "Polokwane")
	um := NewUserModel([]UserPop{{Src: src, Dst: scenario.BigContent, Size: 1}}, 99)

	// Warm up under calm conditions to set the habit baseline.
	var calmTests int
	for i := 0; i < 80; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		_, ms, err := um.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		calmTests += len(ms)
	}
	// Congest the unit's access link: degradation should raise test volume.
	rel, _ := s.Topo.Relationships()
	linkID := rel.Links[327966][scenario.ZATransitB][0]
	e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: linkID, StartHour: e.Hour(), Hours: 100, Magnitude: 0.4})
	var busyTests int
	sawChange := false
	for i := 0; i < 80; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		obs, ms, err := um.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		busyTests += len(ms)
		for _, o := range obs {
			if o.RouteChanged {
				sawChange = true
			}
		}
	}
	_ = sawChange
	if busyTests <= calmTests {
		t.Fatalf("congestion did not raise test volume: calm=%d busy=%d", calmTests, busyTests)
	}
	// All records carry the user-initiated tag.
	if calmTests+busyTests == 0 {
		t.Fatal("no tests at all")
	}
}

func TestBGPWatchFiresOnlyOnChange(t *testing.T) {
	s, e, p := world(t)
	src, _ := s.Topo.FindPoP(328745, "Johannesburg")
	rib, _ := e.RIB()
	dst, err := rib.NearestPoP(src, scenario.BigContent)
	if err != nil {
		t.Fatal(err)
	}
	w := NewBGPWatch(src, dst)
	// Arm.
	if m, err := w.Step(p); err != nil || m != nil {
		t.Fatalf("first step should arm silently: %v %v", m, err)
	}
	// No change: silent.
	if m, _ := w.Step(p); m != nil {
		t.Fatal("fired without a change")
	}
	// Cause a route change: the AS joins the IXP.
	e.Schedule(engine.EvJoinIXP(1, s.IXPName, 328745, 0))
	if err := e.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	m, err := w.Step(p)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("did not fire on route change")
	}
	if m.Intent != probe.IntentTriggered || m.Trigger != "bgp-change" {
		t.Fatalf("tagging: %v %v", m.Intent, m.Trigger)
	}
	// Re-armed: silent again.
	if m, _ := w.Step(p); m != nil {
		t.Fatal("fired twice for one change")
	}
}

func TestBaselineCadence(t *testing.T) {
	s, _, p := world(t)
	src, _ := s.Topo.FindPoP(16637, "Pretoria")
	b := NewBaseline(src, scenario.BigContent, 3)
	var fired int
	for i := 0; i < 9; i++ {
		m, err := b.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			fired++
			if m.Intent != probe.IntentBaseline {
				t.Fatalf("intent = %v", m.Intent)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired = %d want 3", fired)
	}
	if nb := NewBaseline(src, scenario.BigContent, 0); nb.Interval != 1 {
		t.Fatal("interval floor missing")
	}
}

func TestKnobsForceUpstream(t *testing.T) {
	s, e, p := world(t)
	k := NewKnobs(p, 5)
	if _, err := s.Topo.FindPoP(3741, "Johannesburg"); err != nil {
		t.Fatal(err)
	}

	// The knob edits only the v4 policy, so the converged v6 routes must
	// survive both the forcing and its release without a recompute.
	rib6, err := e.RIBFamily(engine.V6)
	if err != nil {
		t.Fatal(err)
	}

	// 3741 is multihomed to Transit-A and Transit-B. Force each and check
	// the AS path follows the knob.
	release, err := k.ForceUpstreamFamily(engine.V4, 3741, scenario.ZATransitA)
	if err != nil {
		t.Fatal(err)
	}
	rib, _ := e.RIB()
	rt := rib.Lookup(3741, scenario.BigContent)
	if rt == nil || rt.Path[0] != scenario.ZATransitA {
		t.Fatalf("forced route = %+v", rt)
	}
	if got, _ := e.RIBFamily(engine.V6); got != rib6 {
		t.Fatal("forcing the v4 upstream recomputed the v6 RIB")
	}
	release()
	rib2, _ := e.RIB()
	if rib2.Lookup(3741, scenario.BigContent) == nil {
		t.Fatal("AS3741 lost its route after release")
	}
	if got, _ := e.RIBFamily(engine.V6); got != rib6 {
		t.Fatal("releasing the v4 upstream recomputed the v6 RIB")
	}
	// Unknown provider rejected.
	if _, err := k.ForceUpstreamFamily(engine.V4, 3741, 9999); err == nil {
		t.Fatal("bogus provider accepted")
	}
}

func TestKnobsCoinFlip(t *testing.T) {
	_, _, p := world(t)
	k := NewKnobs(p, 6)
	heads := 0
	for i := 0; i < 200; i++ {
		if k.CoinFlip() {
			heads++
		}
	}
	if heads < 60 || heads > 140 {
		t.Fatalf("coin flips = %d/200", heads)
	}
}

func TestInterpolateAllEmpty(t *testing.T) {
	xs := []float64{0, 0, 0}
	mathx.InterpolateMissing(xs, []bool{false, false, false})
	for _, x := range xs {
		if x != 0 {
			t.Fatal("all-empty should remain zeros")
		}
	}
}

func TestUnitStringer(t *testing.T) {
	u := Unit{ASN: 3741, City: "Durban"}
	if u.String() != "AS3741/Durban" {
		t.Fatalf("unit = %q", u.String())
	}
}

func TestFrameDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s, err := scenario.BuildSouthAfrica()
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(s.Topo, 123, engine.Config{})
		p := probe.NewProber(e, 124)
		src, _ := s.Topo.FindPoP(37053, "Cape Town")
		var rtts []float64
		for i := 0; i < 10; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			m, err := p.SpeedTest(src, scenario.BigContent, probe.IntentBaseline, "t")
			if err != nil {
				t.Fatal(err)
			}
			rtts = append(rtts, m.RTTms)
		}
		return rtts
	}
	a, b := run(), run()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0 {
			t.Fatalf("diverged at %d", i)
		}
	}
	// RTTs vary across the diurnal cycle (not constant).
	s := mathx.Summarize(a)
	if s.Std == 0 {
		t.Fatal("RTT series is suspiciously constant")
	}
}
