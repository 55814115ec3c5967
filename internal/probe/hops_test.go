package probe

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
)

// recordReference is the record as it was built before hop identity was
// shared: every record derives every hop's address, AS and city itself.
// It draws what record draws, in the same order, from p's stream.
func recordReference(p *Prober, perf engine.PathPerf, intent Intent, trigger string, family int8) *Measurement {
	t := p.Engine.Topo
	sp, dp := t.PoP(perf.Path.Src), t.PoP(perf.Path.Dst)
	asPath := perf.Path.ASPath
	p.nextID++
	m := &Measurement{
		ID: p.nextID, Hour: p.Engine.Hour(), Intent: intent, Trigger: trigger,
		SrcASN: sp.AS, SrcCity: sp.City, DstASN: dp.AS, DstCity: dp.City,
		Family:      family,
		Attempts:    1,
		RTTms:       perf.RTTms + p.jitter(),
		LossRate:    perf.LossRate,
		ASPath:      asPath[:len(asPath):len(asPath)],
		TrueRTTms:   perf.RTTms,
		TrueMaxUtil: perf.MaxUtil,
	}
	m.Hops = expandHopsReference(p, perf, m.RTTms)
	return m
}

// expandHopsReference is the per-record traceroute expansion: a fresh
// identity for every hop of every record.
func expandHopsReference(p *Prober, perf engine.PathPerf, finalRTT float64) []HopRecord {
	t := p.Engine.Topo
	hops := perf.Path.Hops
	out := make([]HopRecord, 0, len(hops))
	oneWay := 0.0
	for i, h := range hops {
		oneWay += h.DelayMs
		pop := t.PoP(h.To)
		addr := t.PoPAddr(h.To)
		if h.Link != nil {
			addr = t.HopAddr(h.Link, h.To)
		}
		out = append(out, HopRecord{
			Hop:   &Hop{TTL: i + 1, Addr: addr, ASN: pop.AS, City: pop.City},
			RTTms: 2*oneWay + p.jitter(),
		})
	}
	if n := len(out); n > 0 && out[n-1].RTTms > finalRTT {
		out[n-1].RTTms = finalRTT
	}
	return out
}

// speedTestReference is speedTest over recordReference.
func speedTestReference(p *Prober, perf engine.PathPerf, family engine.Family, intent Intent, trigger string) *Measurement {
	m := recordReference(p, perf, intent, trigger, int8(family))
	eff := p.ThroughputEff + p.rng.Normal(0, 0.05)
	if eff < 0.3 {
		eff = 0.3
	}
	if eff > 1 {
		eff = 1
	}
	m.ThroughputMbps = perf.ThroughputMbps * eff
	return m
}

// hopBits renders every field of a record, floats as their bits, so two
// renderings are equal only for bit-identical records.
func hopBits(m *Measurement) string {
	var b strings.Builder
	f := math.Float64bits
	fmt.Fprintf(&b, "%d %x %s %s %d %s %d %s %s %d %x %x %x %x %x %v %v %d %d path=%v hops=",
		m.ID, f(m.Hour), m.Intent, m.Trigger, m.SrcASN, m.SrcCity, m.DstASN, m.DstCity, m.Server, m.Family,
		f(m.RTTms), f(m.ThroughputMbps), f(m.LossRate), f(m.TrueRTTms), f(m.TrueMaxUtil),
		m.Failed, m.Truncated, m.Attempts, m.DuplicateOf, m.ASPath)
	for _, h := range m.Hops {
		fmt.Fprintf(&b, "[%d %s %d %s %x]", h.TTL, h.Addr, h.ASN, h.City, f(h.RTTms))
	}
	return b.String()
}

// hopSim is a prober under test and a reference prober with the same
// stream, measuring one engine.
type hopSim struct {
	w        *scenario.World
	e        *engine.Engine
	pr, ref  *Prober
	srcs     []topo.PoPID
	dst      topo.ASN
	joinHour float64
	// recorded holds the paths pr recorded under epoch recordedEpoch: the
	// only paths its hop memo may hold.
	recorded      map[*bgp.Path]bool
	recordedEpoch uint64
}

// newHopSim sets a world up with random flash crowds (which move adaptive
// egress), random link flaps, and every treated AS joining the exchange
// at a random hour.
func newHopSim(t *testing.T, w *scenario.World, seed uint64) *hopSim {
	t.Helper()
	r := mathx.NewRNG(seed)
	e := engine.New(w.Topo, seed, engine.Config{AdaptiveEgress: true})
	links := w.Topo.NumLinks()
	for k := 0; k < 8; k++ {
		e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
			Link:      topo.LinkID(r.Intn(links)),
			StartHour: float64(r.Intn(120)),
			Hours:     float64(4 + r.Intn(30)),
			Magnitude: 0.2 + 0.5*r.Float64(),
		})
	}
	for k := 0; k < 6; k++ {
		at := float64(1 + r.Intn(120))
		id := topo.LinkID(r.Intn(links))
		e.Schedule(engine.EvLinkDown(at, id))
		e.Schedule(engine.EvLinkUp(at+float64(1+r.Intn(12)), id))
	}
	join := float64(20 + r.Intn(80))
	for _, asn := range w.TreatedASNs {
		e.Schedule(engine.EvJoinIXP(join, w.IXPName, asn, 0.02))
	}
	s := &hopSim{w: w, e: e, pr: NewProber(e, seed+1), ref: NewProber(e, seed+1), dst: w.MeasureDst(), joinHour: join}
	for _, u := range w.AllUnits() {
		src, err := w.UserPoP(u)
		if err != nil {
			t.Fatal(err)
		}
		s.srcs = append(s.srcs, src)
	}
	return s
}

// fork returns a copy of s stepping a fork of its engine.
func (s *hopSim) fork() *hopSim {
	e := s.e.Fork(context.Background())
	return &hopSim{w: s.w, e: e, pr: s.pr.Fork(e), ref: s.ref.Fork(e), srcs: s.srcs, dst: s.dst, joinHour: s.joinHour}
}

// step advances one hour and measures from every source: a v4 speed
// test, and on alternate sources a v6 speed test or a traceroute to the
// nearest content PoP. Each record must equal the reference's bit for bit,
// and afterwards the hop memo may hold only paths recorded since the
// topology epoch last moved. It returns the step's records.
func (s *hopSim) step() ([]*Measurement, error) {
	if err := s.e.Step(); err != nil {
		return nil, err
	}
	var out []*Measurement
	check := func(got, want *Measurement, path *bgp.Path) error {
		if hopBits(got) != hopBits(want) || !reflect.DeepEqual(*got, *want) {
			return fmt.Errorf("hour %v: record differs from the per-record expansion\n got %s\nwant %s", s.e.Hour(), hopBits(got), hopBits(want))
		}
		if epoch := s.e.Topo.Epoch(); s.recorded == nil || epoch != s.recordedEpoch {
			s.recorded, s.recordedEpoch = make(map[*bgp.Path]bool), epoch
		}
		s.recorded[path] = true
		out = append(out, got)
		return nil
	}
	for i, src := range s.srcs {
		family := engine.V4
		if i%3 == 1 {
			family = engine.V6
		}
		rib, err := s.e.RoutesToward(s.dst, family)
		if err != nil {
			return nil, err
		}
		dst, err := rib.NearestPoP(src, s.dst)
		if err != nil {
			continue // cut off by a flap; the prober would fail the same way
		}
		perf, err := s.e.PerfOn(rib, src, dst)
		if err != nil {
			return nil, err
		}
		got, err := s.pr.SpeedTestFamily(src, s.dst, family, IntentUserInitiated, "user")
		if err != nil {
			return nil, err
		}
		if err := check(got, speedTestReference(s.ref, perf, family, IntentUserInitiated, "user"), perf.Path); err != nil {
			return nil, err
		}
		if i%3 == 2 {
			perf, err := s.e.Perf(src, dst)
			if err != nil {
				continue
			}
			got, err := s.pr.Traceroute(src, dst, IntentTriggered, "bgp-change")
			if err != nil {
				return nil, err
			}
			if err := check(got, recordReference(s.ref, perf, IntentTriggered, "bgp-change", 4), perf.Path); err != nil {
				return nil, err
			}
		}
	}
	for p := range s.pr.hops {
		if !s.recorded[p] {
			return nil, fmt.Errorf("hour %v: hop memo holds a path %v this prober did not record under epoch %d", s.e.Hour(), p.ASPath, s.recordedEpoch)
		}
	}
	return out, nil
}

// hopWorlds names the worlds the hop tests run on: South Africa and a
// generated internet.
var hopWorlds = []string{"southafrica", "gen"}

// buildHopWorld builds a fresh copy of the named world.
func buildHopWorld(t *testing.T, name string) *scenario.World {
	t.Helper()
	var w *scenario.World
	var err error
	if name == "southafrica" {
		w, err = scenario.BuildSouthAfrica()
	} else {
		sp := scenario.DefaultGenSpec()
		sp.Seed = 5
		w, err = scenario.BuildGenerated(sp)
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// lanHop reports whether a record's traceroute shows the exchange LAN.
func lanHop(m *Measurement, prefix string) bool {
	for _, h := range m.Hops {
		if strings.HasPrefix(h.Addr, prefix) {
			return true
		}
	}
	return false
}

// TestHopIdentityMatchesPerRecordExpansion runs random event sequences —
// link flaps, an exchange join, adaptive egress under flash crowds — on
// South Africa and a generated internet, and holds every record the
// prober makes to the per-record expansion it replaced, field by field
// and RTTs bit for bit. The first records after the join must carry the
// exchange LAN address, and the hop memo must never outlive the topology
// epoch it was filled under.
func TestHopIdentityMatchesPerRecordExpansion(t *testing.T) {
	for i, name := range hopWorlds {
		for seed := uint64(1); seed <= 3; seed++ {
			w := buildHopWorld(t, name)
			s := newHopSim(t, w, 100*uint64(i)+seed)
			sawLAN := false
			for s.e.Hour() < 140 {
				ms, err := s.step()
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if s.e.Hour() <= s.joinHour || sawLAN {
					continue
				}
				// The first hour after the join: some treated source's
				// records must already show the exchange.
				for _, m := range ms {
					sawLAN = sawLAN || lanHop(m, w.IXPPrefix)
				}
				if !sawLAN {
					t.Fatalf("%s seed %d: no record in the hour after the join at %v shows the exchange LAN %s", name, seed, s.joinHour, w.IXPPrefix)
				}
			}
		}
	}
}

// TestHopMemoForksAreIndependent steps forks of a frozen checkpoint
// concurrently, as campaign branches do: each fork's records must equal
// the per-record expansion, and each fork's hop memo may hold only paths
// that fork recorded. A memo a fork shared with its parent or sibling
// would hold paths the fork never recorded, and under -race its writes
// would race.
func TestHopMemoForksAreIndependent(t *testing.T) {
	for i, name := range hopWorlds {
		s := newHopSim(t, buildHopWorld(t, name), 7+uint64(i))
		for s.e.Hour() < s.joinHour-1 {
			if _, err := s.step(); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.pr.hops) == 0 {
			t.Fatal("checkpoint's hop memo is empty: the test would not see a shared one")
		}
		s.e.Topo.Freeze()
		forks := []*hopSim{s.fork(), s.fork(), s.fork()}
		errs := make([]error, len(forks))
		var wg sync.WaitGroup
		for k, f := range forks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f.e.Hour() < s.joinHour+30 && errs[k] == nil {
					_, errs[k] = f.step()
				}
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("%s fork %d: %v", name, k, err)
			}
		}
	}
}
