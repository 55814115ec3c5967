package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"

	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// runCampaignFromScratch is the campaign simulation as it was before
// campaigns branched from a shared trunk, kept as the oracle every
// trunk-built campaign must equal: fetch the world, seed an
// adaptive-egress engine, schedule the joins and then the flaps one by one,
// and drive the user model over the whole horizon from hour 0.
func runCampaignFromScratch(ctx context.Context, pool parallel.Pool, id string, seed uint64, p campaignParams) (campaign, error) {
	totalHours := p.hours()
	joinHour := float64(p.JoinWeek) * 7 * 24

	s, rib, err := fetchWorld(ctx, pool, id)
	if err != nil {
		return campaign{}, err
	}
	if p.FlapEveryHours > 0 && (p.FlapLink < 0 || int(p.FlapLink) >= s.Topo.NumLinks()) {
		return campaign{}, queryInvalidf("FlapLink %d is not a link of world %q (it has %d)", p.FlapLink, id, s.Topo.NumLinks())
	}
	e := engine.New(s.Topo, seed, engine.Config{AdaptiveEgress: true, Pool: pool, InitialRIB: rib}).Bind(ctx)
	pr := probe.NewProber(e, seed+1)
	if p.Join {
		for _, asn := range s.TreatedASNs {
			e.Schedule(engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
		}
		for _, asn := range p.AlsoJoin {
			e.Schedule(engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
		}
	}
	for _, h := range flapHours(totalHours, p.FlapEveryHours) {
		e.Schedule(engine.EvLinkDown(h, p.FlapLink))
		e.Schedule(engine.EvLinkUp(h+6, p.FlapLink))
	}
	var pops []platform.UserPop
	for _, u := range s.AllUnits() {
		src, err := s.UserPoP(u)
		if err != nil {
			return campaign{}, err
		}
		pops = append(pops, platform.UserPop{Src: src, Dst: s.MeasureDst(), Size: 1})
	}
	um := platform.NewUserModel(pops, seed+2)
	um.BaseRate = p.UserRate
	store := platform.NewStore()
	for e.Hour() < totalHours {
		if err := e.Step(); err != nil {
			return campaign{}, err
		}
		_, ms, err := um.Step(pr)
		if err != nil {
			return campaign{}, err
		}
		if err := store.Add(ms...); err != nil {
			return campaign{}, err
		}
	}
	return campaign{world: s, store: store}, nil
}

// recordBits renders every field of a measurement, floats as their bits,
// so two renderings are equal only for bit-identical records.
func recordBits(m *probe.Measurement) string {
	var b strings.Builder
	bits := func(x float64) { fmt.Fprintf(&b, "%x|", math.Float64bits(x)) }
	fmt.Fprintf(&b, "%d|%s|%s|%d|%s|%d|%s|%s|%d|%v|%v|%d|%d|%v|",
		m.ID, m.Intent, m.Trigger, m.SrcASN, m.SrcCity, m.DstASN, m.DstCity, m.Server,
		m.Family, m.Failed, m.Truncated, m.Attempts, m.DuplicateOf, m.ASPath)
	for _, x := range []float64{m.Hour, m.RTTms, m.ThroughputMbps, m.LossRate, m.TrueRTTms, m.TrueMaxUtil} {
		bits(x)
	}
	for _, h := range m.Hops {
		fmt.Fprintf(&b, "%d,%s,%d,%s,", h.TTL, h.Addr, h.ASN, h.City)
		bits(h.RTTms)
	}
	return b.String()
}

// topoBits renders a topology's mutable overlay: every link with its
// endpoints, capacity, delay, baseline and up state, and every exchange's
// members in joining order.
func topoBits(t *topo.Topology) string {
	var b strings.Builder
	for id := 0; id < t.NumLinks(); id++ {
		l := t.Link(topo.LinkID(id))
		fmt.Fprintf(&b, "%d:%d-%d/%v/%s/%x/%x/%x/%v;", l.ID, l.A, l.B, l.Rel, l.IXP,
			math.Float64bits(l.CapacityMbps), math.Float64bits(l.DelayMs), math.Float64bits(l.BaseUtil), l.Up)
	}
	for _, x := range t.IXPs() {
		fmt.Fprintf(&b, "%s%v;", x.Name, x.Members)
	}
	return b.String()
}

// campaignDiff describes the first difference between two campaigns' records
// and post-simulation topologies, or returns "" when they are identical.
func campaignDiff(got, want campaign) string {
	g, w := got.store.All(), want.store.All()
	if len(g) != len(w) {
		return fmt.Sprintf("%d records, want %d", len(g), len(w))
	}
	for i := range w {
		if recordBits(g[i]) != recordBits(w[i]) || !reflect.DeepEqual(*g[i], *w[i]) {
			return fmt.Sprintf("record %d:\n got %s\nwant %s", i, recordBits(g[i]), recordBits(w[i]))
		}
	}
	if gc, wc := got.store.TotalCoverage(), want.store.TotalCoverage(); gc != wc {
		return fmt.Sprintf("coverage %+v, want %+v", gc, wc)
	}
	if gt, wt := topoBits(got.world.Topo), topoBits(want.world.Topo); gt != wt {
		return fmt.Sprintf("post-simulation topology differs:\n got %s\nwant %s", gt, wt)
	}
	return ""
}
