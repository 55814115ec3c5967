package platform

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/probe"
)

// userSim is a campaign's moving parts: the engine, its prober and the
// user model over every unit of the world.
type userSim struct {
	e  *engine.Engine
	pr *probe.Prober
	um *UserModel
}

func (s userSim) fork() userSim {
	e := s.e.Fork(context.Background())
	return userSim{e: e, pr: s.pr.Fork(e), um: s.um.Fork()}
}

// step advances one hour and renders what the users saw and measured,
// floats as their bits.
func (s userSim) step() (string, error) {
	if err := s.e.Step(); err != nil {
		return "", err
	}
	obs, ms, err := s.um.Step(s.pr)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, o := range obs {
		fmt.Fprintf(&b, "%x/%v/%x/%d;", math.Float64bits(o.RTTms), o.RouteChanged, math.Float64bits(o.Degradation), o.TestsRun)
	}
	for _, m := range ms {
		fmt.Fprintf(&b, "%d %v %v %s %s %v|", m.ID, m.SrcASN, m.DstCity, m.Intent, m.Trigger, m.ASPath)
		for _, x := range []float64{m.Hour, m.RTTms, m.ThroughputMbps, m.LossRate, m.TrueRTTms, m.TrueMaxUtil} {
			fmt.Fprintf(&b, "%x,", math.Float64bits(x))
		}
		for _, h := range m.Hops {
			fmt.Fprintf(&b, "%d %s %d %s %x,", h.TTL, h.Addr, h.ASN, h.City, math.Float64bits(h.RTTms))
		}
	}
	return b.String(), nil
}

// userSims builds, on South Africa and three generated internets, a user
// simulation with flash crowds, every treated AS joining the exchange at a
// random hour, and adaptive egress, run to a random hour.
func userSims(t *testing.T) []userSim {
	t.Helper()
	sa, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	worlds := []*scenario.World{sa}
	for seed := uint64(4); seed <= 6; seed++ {
		sp := scenario.DefaultGenSpec()
		sp.Seed = seed
		w, err := scenario.BuildGenerated(sp)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, w)
	}
	var sims []userSim
	for i, w := range worlds {
		seed := uint64(200 + i)
		r := mathx.NewRNG(seed)
		e := engine.New(w.Topo, seed, engine.Config{AdaptiveEgress: true})
		for k := 0; k < 10; k++ {
			e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
				Link:      topo.LinkID(r.Intn(w.Topo.NumLinks())),
				StartHour: float64(r.Intn(300)),
				Hours:     float64(4 + r.Intn(40)),
				Magnitude: 0.2 + 0.5*r.Float64(),
			})
		}
		joinHour := float64(40 + r.Intn(200))
		for _, asn := range w.TreatedASNs {
			e.Schedule(engine.EvJoinIXP(joinHour, w.IXPName, asn, 0.02))
		}
		var pops []UserPop
		for _, u := range w.AllUnits() {
			src, err := w.UserPoP(u)
			if err != nil {
				t.Fatal(err)
			}
			pops = append(pops, UserPop{Src: src, Dst: w.MeasureDst(), Size: 1})
		}
		um := NewUserModel(pops, seed+2)
		um.BaseRate = 0.5
		s := userSim{e: e, pr: probe.NewProber(e, seed+1), um: um}
		for h := 50 + r.Intn(250); h > 0; h-- {
			if _, err := s.step(); err != nil {
				t.Fatal(err)
			}
		}
		sims = append(sims, s)
	}
	return sims
}

// TestUserSimForkMatchesOriginal steps a user simulation and its fork —
// engine, prober and user model — side by side: every hour the users'
// observations and every record must agree bit for bit.
func TestUserSimForkMatchesOriginal(t *testing.T) {
	for i, s := range userSims(t) {
		f := s.fork()
		for h := 0; h < 60; h++ {
			want, err := s.step()
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.step()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("world %d, hour %v: fork diverged\n got %s\nwant %s", i, s.e.Hour(), got, want)
			}
		}
	}
}

// TestUserSimForkIsolation runs a fork ahead under surges on every link;
// the original's next hours must be those of the same simulation replayed
// from scratch, which no fork touched.
func TestUserSimForkIsolation(t *testing.T) {
	replays := userSims(t)
	for i, s := range userSims(t) {
		f, ref := s.fork(), replays[i]
		for id := 0; id < f.e.Topo.NumLinks(); id++ {
			f.e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: topo.LinkID(id), StartHour: f.e.Hour(), Hours: 30, Magnitude: 0.5})
		}
		for h := 0; h < 30; h++ {
			if _, err := f.step(); err != nil {
				t.Fatal(err)
			}
		}
		for h := 0; h < 30; h++ {
			want, err := ref.step()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.step()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("world %d, hour %v: the fork's steps reached the original\n got %s\nwant %s", i, s.e.Hour(), got, want)
			}
		}
	}
}
