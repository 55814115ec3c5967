// Package probe implements active measurement primitives over the simulated
// network: ping, traceroute, and M-Lab-style speed tests (which, like NDT,
// automatically attach a traceroute). Every measurement record carries an
// intent tag and trigger context — design change (2) from §4 of the paper —
// so downstream analysis can account for how the data came to exist.
package probe

import (
	"fmt"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/topo"
)

// Intent records why a measurement ran. The paper argues platforms must
// expose this so analysts can detect conditioning on colliders: a dataset of
// IntentUserInitiated tests is selection-biased by construction, while
// IntentBaseline tests are not.
type Intent string

const (
	// IntentBaseline marks scheduled, unconditional measurements.
	IntentBaseline Intent = "baseline"
	// IntentUserInitiated marks tests run by (simulated) users, whose
	// propensity to test depends on what they experience.
	IntentUserInitiated Intent = "user-initiated"
	// IntentTriggered marks measurements fired by a platform trigger
	// (e.g. a BGP event) — §4's conditional measurement activation.
	IntentTriggered Intent = "triggered"
	// IntentExperiment marks measurements that are part of a designed
	// experiment (e.g. randomized server assignment).
	IntentExperiment Intent = "experiment"
)

// HopRecord is one traceroute hop.
type HopRecord struct {
	TTL  int
	Addr string
	ASN  topo.ASN
	City string
	// RTTms is the round-trip time to this hop.
	RTTms float64
}

// Measurement is one completed measurement.
type Measurement struct {
	ID      int
	Hour    float64
	Intent  Intent
	Trigger string // free-form trigger context ("user", "bgp-change", ...)

	SrcASN  topo.ASN
	SrcCity string
	DstASN  topo.ASN
	DstCity string
	// Server identifies the measurement server (M-Lab site) if any.
	Server string
	// Family is the IP family used (4 or 6).
	Family int

	RTTms          float64
	ThroughputMbps float64
	LossRate       float64
	Hops           []HopRecord
	ASPath         []topo.ASN

	// Failed marks a probe whose every attempt timed out (injected fault or
	// vantage outage). The record still carries its identity fields so the
	// gap is explicit and attributable; performance fields are zero and must
	// not be aggregated. Analyses filter on this flag, never on absence.
	Failed bool `json:",omitempty"`
	// Truncated marks a traceroute whose tail hops were lost: Hops is a
	// strict prefix of the real path and the IXP detector may miss
	// crossings on this record.
	Truncated bool `json:",omitempty"`
	// Attempts is how many tries the probe took (1 = first-try success).
	// Zero only on records predating retry accounting.
	Attempts int `json:",omitempty"`
	// DuplicateOf is the ID of the original record when this one is an
	// injected duplicate delivery; zero otherwise.
	DuplicateOf int `json:",omitempty"`

	// Ground-truth fields (prefixed True) exist only because the substrate
	// is a simulator; estimators must not use them. They let tests compare
	// estimates against the truth.
	TrueRTTms   float64
	TrueMaxUtil float64
}

// Prober issues measurements against an engine. Measurement noise uses its
// own RNG stream so that replaying a counterfactual world perturbs neither
// traffic noise nor measurement noise.
type Prober struct {
	Engine *engine.Engine
	rng    *mathx.RNG
	nextID int
	// RTTJitterMs scales additive measurement jitter (default 1.2).
	RTTJitterMs float64
	// ThroughputEff is the mean fraction of bottleneck bandwidth a TCP
	// transfer achieves (default 0.85).
	ThroughputEff float64
}

// NewProber returns a prober with its own noise stream.
func NewProber(e *engine.Engine, seed uint64) *Prober {
	return &Prober{Engine: e, rng: mathx.NewRNG(seed), RTTJitterMs: 1.2, ThroughputEff: 0.85}
}

// Fork returns a copy of the prober measuring e — typically a Fork of the
// prober's own engine. The copy carries the noise stream by value and the
// next record ID, so it draws exactly what the prober would draw from here
// on, and neither one's draws move the other.
func (p *Prober) Fork(e *engine.Engine) *Prober {
	f := *p
	rng := *p.rng
	f.Engine, f.rng = e, &rng
	return &f
}

func (p *Prober) jitter() float64 {
	// Positive-skewed jitter: queue variance only ever adds latency.
	return p.rng.Exponential(1 / p.RTTJitterMs)
}

// Traceroute measures the path between two PoPs with per-hop RTTs and
// addresses (IXP LAN addresses appear on IXP crossings).
func (p *Prober) Traceroute(src, dst topo.PoPID, intent Intent, trigger string) (*Measurement, error) {
	perf, err := p.Engine.Perf(src, dst)
	if err != nil {
		return nil, err
	}
	return p.record(perf, intent, trigger, 4), nil
}

// SpeedTest measures throughput to the nearest PoP of a destination AS and
// attaches a traceroute, mirroring M-Lab's NDT + triggered traceroute.
func (p *Prober) SpeedTest(src topo.PoPID, dstAS topo.ASN, intent Intent, trigger string) (*Measurement, error) {
	return p.SpeedTestFamily(src, dstAS, engine.V4, intent, trigger)
}

// SpeedTestFamily runs a speed test over the given IP family's routes —
// the measurement half of §4's IPv4/IPv6 toggle knob. The destination PoP
// is the family's own nearest edge (families can differ here too).
func (p *Prober) SpeedTestFamily(src topo.PoPID, dstAS topo.ASN, family engine.Family, intent Intent, trigger string) (*Measurement, error) {
	rib, err := p.Engine.RoutesToward(dstAS, family)
	if err != nil {
		return nil, err
	}
	dst, err := rib.NearestPoP(src, dstAS)
	if err != nil {
		return nil, err
	}
	perf, err := p.Engine.PerfOn(rib, src, dst)
	if err != nil {
		return nil, err
	}
	return p.speedTest(perf, family, intent, trigger), nil
}

// SpeedTestOn runs a v4 speed test over perf, a PathPerf the caller read
// from the engine's current routes at the current hour — PerfToAS toward
// the test's destination AS. It records and draws exactly what SpeedTest
// toward that AS would, without measuring the path again.
func (p *Prober) SpeedTestOn(perf *engine.PathPerf, intent Intent, trigger string) *Measurement {
	return p.speedTest(perf, engine.V4, intent, trigger)
}

// SpeedTestTo measures throughput to a specific server PoP (used when a
// load balancer, not anycast, picks the server).
func (p *Prober) SpeedTestTo(src, dst topo.PoPID, intent Intent, trigger string) (*Measurement, error) {
	perf, err := p.Engine.Perf(src, dst)
	if err != nil {
		return nil, err
	}
	return p.speedTest(perf, engine.V4, intent, trigger), nil
}

// speedTest is the body every speed test shares: the record and the
// achieved-throughput draw.
func (p *Prober) speedTest(perf *engine.PathPerf, family engine.Family, intent Intent, trigger string) *Measurement {
	m := p.record(perf, intent, trigger, int(family))
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

// record builds a completed measurement with its traceroute hops. The AS
// path is the forwarded path's own immutable slice, shared through a
// full-slice expression so an append on the record copies it first.
func (p *Prober) record(perf *engine.PathPerf, intent Intent, trigger string, family int) *Measurement {
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
	m.Hops = p.expandHops(perf, m.RTTms)
	return m
}

// expandHops converts the forwarding path into traceroute output. Hop RTTs
// grow monotonically toward the end-to-end RTT with per-hop jitter.
func (p *Prober) expandHops(perf *engine.PathPerf, finalRTT float64) []HopRecord {
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
			TTL:   i + 1,
			Addr:  addr,
			ASN:   pop.AS,
			City:  pop.City,
			RTTms: 2*oneWay + p.jitter(),
		})
	}
	if n := len(out); n > 0 && out[n-1].RTTms > finalRTT {
		out[n-1].RTTms = finalRTT
	}
	return out
}

// String renders a compact single-line summary.
func (m *Measurement) String() string {
	return fmt.Sprintf("[%s@%.1fh] AS%d/%s -> AS%d/%s rtt=%.2fms tput=%.0fMbps hops=%d",
		m.Intent, m.Hour, m.SrcASN, m.SrcCity, m.DstASN, m.DstCity, m.RTTms, m.ThroughputMbps, len(m.Hops))
}
