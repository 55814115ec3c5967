package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
)

// forkWorlds builds the fork tests' worlds afresh: South Africa and three
// generated internets.
func forkWorlds(t *testing.T) []*scenario.World {
	t.Helper()
	sa, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	worlds := []*scenario.World{sa}
	for seed := uint64(1); seed <= 3; seed++ {
		sp := scenario.DefaultGenSpec()
		sp.Seed = seed
		w, err := scenario.BuildGenerated(sp)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, w)
	}
	return worlds
}

// forkPop is a user population's path: a unit's PoP toward the world's
// measurement destination.
type forkPop struct {
	src topo.PoPID
	dst topo.ASN
}

// forkFixture is an adaptive-egress engine over w with everything a
// campaign engine carries: flash crowds on random links, every treated AS
// joining the exchange at a random hour, a flapping provider link, and a
// v6 policy edit. Even-numbered fixtures start from a pre-converged RIB,
// as cached campaign engines do.
func forkFixture(t *testing.T, i int, w *scenario.World) (*Engine, []forkPop, *mathx.RNG) {
	t.Helper()
	seed := uint64(100 + i)
	r := mathx.NewRNG(seed ^ 0x5eed)
	cfg := Config{AdaptiveEgress: true}
	if i%2 == 0 {
		rib, err := bgp.Compute(context.Background(), cfg.Pool, w.Topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.InitialRIB = rib
	}
	e := New(w.Topo, seed, cfg)
	n := w.Topo.NumLinks()
	for k := 0; k < 12; k++ {
		e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
			Link:      topo.LinkID(r.Intn(n)),
			StartHour: float64(r.Intn(400)),
			Hours:     float64(4 + r.Intn(40)),
			Magnitude: 0.2 + 0.5*r.Float64(),
		})
	}
	joinHour := float64(50 + r.Intn(300))
	for _, asn := range w.TreatedASNs {
		e.Schedule(EvJoinIXP(joinHour, w.IXPName, asn, 0.02))
	}
	rel, err := w.Topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	flap := topo.LinkID(-1)
	for _, u := range w.Donors {
		for p, k := range rel.Rel[u.ASN] {
			if k == topo.RelCustomer && (flap < 0 || rel.Links[u.ASN][p][0] < flap) {
				flap = rel.Links[u.ASN][p][0]
			}
		}
		if flap >= 0 {
			break
		}
	}
	for h := 30.0; h < 600; h += 41 {
		e.Schedule(EvLinkDown(h, flap))
		e.Schedule(EvLinkUp(h+6, flap))
	}
	pol6, err := e.PolicyFamily(V6)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.TreatedASNs) > 0 {
		for p, k := range rel.Rel[w.TreatedASNs[0]] {
			if k == topo.RelCustomer {
				pol6.SetLocalPref(w.TreatedASNs[0], p, 10)
				break
			}
		}
	}
	var pops []forkPop
	for _, u := range w.AllUnits() {
		src, err := w.UserPoP(u)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, forkPop{src: src, dst: w.MeasureDst()})
	}
	return e, pops, r
}

// forkState renders what an hour of the engine shows its callers, floats
// as their bits: every link's utilization, every population's PerfToAS and
// v6 path, and the event log.
func forkState(e *Engine, pops []forkPop) string {
	var b strings.Builder
	for id := 0; id < e.Topo.NumLinks(); id++ {
		fmt.Fprintf(&b, "%x,", math.Float64bits(e.Utilization(topo.LinkID(id))))
	}
	perf := func(p *PathPerf, err error) {
		if err != nil {
			fmt.Fprintf(&b, "err %v;", err)
			return
		}
		fmt.Fprintf(&b, "%v %v %x %x %x %x %d;", p.Path.ASPath, len(p.Path.Hops), math.Float64bits(p.RTTms),
			math.Float64bits(p.LossRate), math.Float64bits(p.ThroughputMbps), math.Float64bits(p.MaxUtil), p.BottleneckLink)
	}
	for _, p := range pops {
		perf(e.PerfToAS(p.src, p.dst))
		rib, err := e.RoutesToward(p.dst, V6)
		if err != nil {
			fmt.Fprintf(&b, "v6 err %v;", err)
			continue
		}
		perf(e.perfToASOn(rib, p.src, p.dst))
	}
	fmt.Fprintf(&b, "hour %v step %d log %q", e.Hour(), e.step, e.eventLg)
	return b.String()
}

// TestForkMatchesOriginal forks each fixture at a random hour and steps
// the engine and its fork side by side under the same events: every hour
// their utilizations, PerfToAS answers, v6 paths and event logs must agree
// bit for bit.
func TestForkMatchesOriginal(t *testing.T) {
	for i, w := range forkWorlds(t) {
		e, pops, r := forkFixture(t, i, w)
		if err := e.RunUntil(float64(100 + r.Intn(300))); err != nil {
			t.Fatal(err)
		}
		f := e.Fork(context.Background())
		for h := 0; h < 72; h++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := forkState(f, pops), forkState(e, pops); got != want {
				t.Fatalf("world %d, hour %v: fork diverged\n got %s\nwant %s", i, e.Hour(), got, want)
			}
		}
	}
}

// TestForkIsolation mauls a fork — surges and load shifts on every link, a
// link taken down, edits to both policies and a scheduled event — and
// steps it ahead; the original's next hours must stay those of the same fixture
// replayed from scratch, which no fork touched.
func TestForkIsolation(t *testing.T) {
	replays := forkWorlds(t)
	for i, w := range forkWorlds(t) {
		e, pops, r := forkFixture(t, i, w)
		ref, _, rr := forkFixture(t, i, replays[i])
		if err := e.RunUntil(float64(100 + r.Intn(300))); err != nil {
			t.Fatal(err)
		}
		if err := ref.RunUntil(float64(100 + rr.Intn(300))); err != nil {
			t.Fatal(err)
		}
		// Surges both sides add: three before the fork leave each link's
		// surge slice with spare capacity, which the original fills after
		// it, so a fork writing into that array would overwrite it.
		surge := func(e *Engine, k int) {
			for id := 0; id < e.Topo.NumLinks(); id++ {
				e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: topo.LinkID(id), StartHour: e.Hour() + float64(k), Hours: 6, Magnitude: 0.1})
			}
		}
		for k := 0; k < 3; k++ {
			surge(e, k)
			surge(ref, k)
		}
		f := e.Fork(context.Background())
		surge(e, 3)
		surge(ref, 3)
		for id := 0; id < f.Topo.NumLinks(); id++ {
			f.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: topo.LinkID(id), StartHour: f.Hour(), Hours: 48, Magnitude: 0.4})
			f.Traffic.AddLoadShift(topo.LinkID(id), f.Hour(), 0.05)
		}
		f.Topo.SetLinkUp(topo.LinkID(r.Intn(f.Topo.NumLinks())), false)
		f.Schedule(EvLinkDown(f.Hour()+3, topo.LinkID(r.Intn(f.Topo.NumLinks()))))
		f.Policy.DenyLink[topo.LinkID(r.Intn(f.Topo.NumLinks()))] = true
		f.MarkDirty()
		pol6, err := f.PolicyFamily(V6)
		if err != nil {
			t.Fatal(err)
		}
		pol6.DenyLink[topo.LinkID(r.Intn(f.Topo.NumLinks()))] = true
		for h := 0; h < 48; h++ {
			if err := f.Step(); err != nil {
				break // the maul may partition the fork; only the original matters
			}
			forkState(f, pops)
		}
		for h := 0; h < 48; h++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := forkState(e, pops), forkState(ref, pops); got != want {
				t.Fatalf("world %d, hour %v: the fork's maul reached the original\n got %s\nwant %s", i, e.Hour(), got, want)
			}
		}
	}
}

// TestRescheduleMatchesScheduleFromStart builds an engine with a schedule
// from the start and a second one that ran the same steps with only the
// events fired by then, then had its queue Rescheduled to the full
// schedule: both must fire the same events in the same order, including a
// same-hour pair whose order only the original scheduling order decides.
func TestRescheduleMatchesScheduleFromStart(t *testing.T) {
	w := forkWorlds(t)[0]
	mk := func() *Engine { return New(w.Topo.Clone(), 3, Config{}) }
	evs := []Event{
		EvLinkDown(5, 1), EvLinkUp(9, 1),
		EvLinkDown(12, 2), EvLinkDown(12, 3), // same hour: 2 before 3
		EvLinkUp(20, 3), EvLinkUp(20, 2),
	}
	full, part := mk(), mk()
	for i, ev := range evs {
		full.Schedule(ev)
		if i < 2 {
			part.Schedule(ev)
		}
	}
	for _, e := range []*Engine{full, part} {
		if err := e.RunUntil(10); err != nil {
			t.Fatal(err)
		}
	}
	part.Reschedule(evs...)
	for _, e := range []*Engine{full, part} {
		if err := e.RunUntil(24); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := strings.Join(part.eventLg, ";"), strings.Join(full.eventLg, ";"); got != want {
		t.Fatalf("rescheduled log %q, want %q", got, want)
	}
	if part.fired != len(evs) || len(part.events) != len(evs) {
		t.Fatalf("rescheduled engine fired %d of %d queued events, want all %d", part.fired, len(part.events), len(evs))
	}
}
