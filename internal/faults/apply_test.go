package faults

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

// hookedCampaign is the reference Apply is held to: one campaign simulated
// the way the experiments' campaign runner simulates it (adaptive-egress
// engine, treated ASes joining the exchange at joinHour, user-initiated
// speed tests), with the faults applied online the way a fault hook inside
// the prober applied them. Each probe's attempts are decided at the
// engine's live hour from the vantage PoP its user population probes from,
// its record faults follow at once, and every step's batch goes through
// ingestion as the step ends. It returns the clean records and the faulted
// ones.
func hookedCampaign(t *testing.T, s *scenario.World, seed uint64, hours, joinHour, userRate float64, cfg Config, retry RetryPolicy) (clean, hooked []*probe.Measurement) {
	t.Helper()
	e := engine.New(s.Topo, seed, engine.Config{AdaptiveEgress: true})
	pr := probe.NewProber(e, seed+1)
	for _, asn := range s.TreatedASNs {
		e.Schedule(engine.EvJoinIXP(joinHour, s.IXPName, asn, 0.02))
	}
	var pops []platform.UserPop
	vantage := make(map[platform.Unit]topo.PoPID)
	for _, u := range s.AllUnits() {
		src, err := s.UserPoP(u)
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, platform.UserPop{Src: src, Dst: s.MeasureDst(), Size: 1})
		p := s.Topo.PoP(src)
		vantage[platform.Unit{ASN: p.AS, City: p.City}] = src
	}
	um := platform.NewUserModel(pops, seed+2)
	um.BaseRate = userRate

	in := newInjector(context.Background(), cfg)
	maxAttempts := max(retry.MaxAttempts, 1)
	for e.Hour() < hours {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		ms, err := um.Step(pr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, ms...)
		batch := make([]*probe.Measurement, 0, len(ms))
		for _, m := range ms {
			src := vantage[platform.UnitOf(m)]
			attempts, failed := maxAttempts, true
			for a := 1; a <= maxAttempts; a++ {
				if !in.attemptFails(src, e.Hour(), m.ID, a) {
					attempts, failed = a, false
					break
				}
			}
			if failed {
				batch = append(batch, &probe.Measurement{
					ID: m.ID, Hour: e.Hour(), Intent: m.Intent, Trigger: m.Trigger,
					SrcASN: m.SrcASN, SrcCity: m.SrcCity, DstASN: m.DstASN, DstCity: m.DstCity,
					Family: m.Family, Failed: true, Attempts: int32(attempts),
				})
				continue
			}
			f := *m
			f.Hops = slices.Clone(m.Hops)
			f.Attempts = int32(attempts)
			in.mutate(&f, m.ID)
			batch = append(batch, &f)
		}
		hooked = append(hooked, in.deliver(batch...)...)
	}
	return clean, append(hooked, in.flush()...)
}

// recordBits renders every field of a record, floats as their bit
// patterns, so two records compare equal only when they are bit-identical.
func recordBits(m *probe.Measurement) string {
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

func allBits(ms []*probe.Measurement) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = recordBits(m)
	}
	return out
}

// TestApplyMatchesHookedCampaign is Apply's oracle: over random fault
// configurations and retry policies, on the South Africa world and on
// generated worlds, deriving the faulted campaign from the clean one gives
// the hooked simulation's records, bit for bit and in delivery order. Low
// user rates leave steps without records, so a record held back by reorder
// must be released by an empty step's delivery. The clean records must come
// out of Apply unwritten: they are a frozen store's shared measurements.
func TestApplyMatchesHookedCampaign(t *testing.T) {
	worlds := []string{
		scenario.SouthAfricaID,
		"gen:access=6+treated=2+seed=3",
		"gen:tier2=4+access=8+content=2+treated=3+multihome=1+seed=11",
	}
	r := mathx.NewRNG(29)
	rate := func(hi float64) float64 {
		if r.Bernoulli(0.3) {
			return 0
		}
		return hi * r.Float64()
	}
	cases := 12
	if testing.Short() {
		cases = 3
	}
	emptyAfterHeld := 0
	for c := range cases {
		id := worlds[c%len(worlds)]
		cfg := Config{
			Seed:                  r.Uint64(),
			DropRate:              rate(0.7),
			TruncateRate:          rate(1),
			TimestampSkewStdHours: rate(4),
			DuplicateRate:         rate(0.6),
			ReorderRate:           0.05 + rate(0.6),
			OutagesPerKiloHour:    rate(40),
			OutageMeanHours:       rate(48),
		}
		retry := RetryPolicy{MaxAttempts: r.Intn(5)}
		seed := r.Uint64() % 1000
		userRate := 0.01 + 0.2*r.Float64()
		name := fmt.Sprintf("%d/%s", c, id)
		t.Run(name, func(t *testing.T) {
			s := buildWorld(t, id)
			const hours, joinHour = 336, 168
			clean, want := hookedCampaign(t, s, seed, hours, joinHour, userRate, cfg, retry)
			before := allBits(clean)
			got, err := Apply(context.Background(), cfg, retry, s.Topo, hours, clean)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(allBits(clean), before) {
				t.Fatal("Apply wrote the clean records")
			}
			gb, wb := allBits(got), allBits(want)
			if len(gb) != len(wb) {
				t.Fatalf("Apply delivered %d records, the hooked campaign %d (config %+v, retry %+v)", len(gb), len(wb), cfg, retry)
			}
			for i := range gb {
				if gb[i] != wb[i] {
					t.Fatalf("record %d of %d differs (config %+v, retry %+v)\n Apply: %s\nhooked: %s", i, len(gb), cfg, retry, gb[i], wb[i])
				}
			}
			emptyAfterHeld += emptyStepsAfterHeld(clean, cfg)
		})
	}
	if !testing.Short() && emptyAfterHeld == 0 {
		t.Fatal("no case held a record over an empty step: the empty-step release went unchecked")
	}
}

// emptyStepsAfterHeld counts the steps that have no records of their own
// but follow a step whose records the reorder stream held back — the steps
// whose delivery releases them.
func emptyStepsAfterHeld(clean []*probe.Measurement, cfg Config) int {
	in := newInjector(context.Background(), cfg)
	held := make(map[float64]bool)
	per := make(map[float64]int)
	for _, m := range clean {
		per[m.Hour]++
		if in.stream(kindDeliver, uint64(m.ID), 0).Bernoulli(cfg.ReorderRate) {
			held[m.Hour] = true
		}
	}
	n := 0
	for h := range held {
		if per[h+1] == 0 {
			n++
		}
	}
	return n
}

// buildWorld builds a canned world by id, or a generated one by its spec.
func buildWorld(t *testing.T, id string) *scenario.World {
	t.Helper()
	if !strings.HasPrefix(id, scenario.GenSpecPrefix) {
		s, err := scenario.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sp, err := scenario.ParseGenSpec(id)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.BuildGenerated(sp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
