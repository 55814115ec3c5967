package platform

import (
	"fmt"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

// MLabPool models an M-Lab metro: several measurement servers hosted in
// *different* ASes within one metro, fronted by a load balancer that
// assigns each incoming test to a uniformly random site. Because the
// assignment is exogenous — independent of user, route, and network state —
// contrasts between sites identify the causal effect of routing, as §3's
// randomization discussion explains.
type MLabPool struct {
	Metro   string
	Servers []topo.PoPID
	rng     *mathx.RNG
}

// NewMLabPool builds a pool over server PoPs with its own RNG stream.
func NewMLabPool(metro string, servers []topo.PoPID, seed uint64) (*MLabPool, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("platform: pool %s has no servers", metro)
	}
	return &MLabPool{Metro: metro, Servers: servers, rng: mathx.NewRNG(seed)}, nil
}

// Assign picks a server uniformly at random, returning its PoP and index.
func (p *MLabPool) Assign() (topo.PoPID, int) {
	i := p.rng.Intn(len(p.Servers))
	return p.Servers[i], i
}

// RunTest executes one randomized speed test from the user PoP: the load
// balancer assigns a server, the test runs against it, and the record is
// tagged IntentExperiment with the server identity attached.
func (p *MLabPool) RunTest(pr *probe.Prober, user topo.PoPID) (*probe.Measurement, int, error) {
	server, idx := p.Assign()
	m, err := pr.SpeedTestTo(user, server, probe.IntentExperiment, "mlab-lb")
	if err != nil {
		return nil, 0, err
	}
	m.Server = fmt.Sprintf("%s-%d", p.Metro, idx)
	return m, idx, nil
}

// BGPWatch implements conditional measurement activation (§4 point 1): it
// polls the control plane for the monitored pair and fires a traceroute
// tagged IntentTriggered whenever the AS path changes. The resulting
// records carry the trigger context so analysts can separate them from
// baseline samples.
type BGPWatch struct {
	Src  topo.PoPID
	Dst  topo.PoPID
	last string
}

// NewBGPWatch monitors the route from src to dst.
func NewBGPWatch(src, dst topo.PoPID) *BGPWatch {
	return &BGPWatch{Src: src, Dst: dst}
}

// Step checks for a route change and fires a triggered traceroute if one
// happened. The first observation arms the watch without firing.
func (w *BGPWatch) Step(pr *probe.Prober) (*probe.Measurement, error) {
	rib, err := pr.Engine.RIB()
	if err != nil {
		return nil, err
	}
	path, err := rib.Forward(w.Src, w.Dst)
	if err != nil {
		return nil, err
	}
	sig := fmt.Sprint(path.ASPath)
	if w.last == "" {
		w.last = sig
		return nil, nil
	}
	if sig == w.last {
		return nil, nil
	}
	w.last = sig
	return pr.Traceroute(w.Src, w.Dst, probe.IntentTriggered, "bgp-change")
}

// Baseline is a fixed-cadence scheduled measurement (a RIPE-Atlas-style
// anchor mesh entry): every Interval steps it pings and traceroutes the
// pair, tagged IntentBaseline.
type Baseline struct {
	Src      topo.PoPID
	DstAS    topo.ASN
	Interval int
	count    int
}

// NewBaseline schedules src → dstAS probes every interval steps.
func NewBaseline(src topo.PoPID, dstAS topo.ASN, interval int) *Baseline {
	if interval < 1 {
		interval = 1
	}
	return &Baseline{Src: src, DstAS: dstAS, Interval: interval}
}

// Step runs the scheduled measurement when due.
func (b *Baseline) Step(pr *probe.Prober) (*probe.Measurement, error) {
	b.count++
	if b.count%b.Interval != 0 {
		return nil, nil
	}
	return pr.SpeedTest(b.Src, b.DstAS, probe.IntentBaseline, "schedule")
}

// Knobs is the exogenous-variation API of §4 point 3: handles researchers
// can turn that change routing *without* reference to network state, making
// the induced variation usable as an instrument.
type Knobs struct {
	pr  *probe.Prober
	rng *mathx.RNG
}

// NewKnobs wraps a prober with experiment controls.
func NewKnobs(pr *probe.Prober, seed uint64) *Knobs {
	return &Knobs{pr: pr, rng: mathx.NewRNG(seed)}
}

// CoinFlip returns true with probability 0.5 from the knob RNG — the
// randomization device for designed experiments.
func (k *Knobs) CoinFlip() bool { return k.rng.Bernoulli(0.5) }

// ForceUpstreamFamily pins an access AS's egress on one address family to
// one provider by local-pref override (the PEERING-style announcement
// control), leaving the other family's routes converged. It returns a
// release function restoring the default. The variation is exogenous
// because the caller decides when to flip it (e.g. on a coin toss), not the
// network; flipping a client between families induces AS-path variation —
// the paper's "toggling IPv4 vs IPv6 to alter AS paths" knob.
func (k *Knobs) ForceUpstreamFamily(family engine.Family, asn, provider topo.ASN) (release func(), err error) {
	rel, err := k.pr.Engine.Topo.Relationships()
	if err != nil {
		return nil, err
	}
	pol, err := k.pr.Engine.PolicyFamily(family)
	if err != nil {
		return nil, err
	}
	found := false
	var others []topo.ASN
	for n, kind := range rel.Rel[asn] {
		if kind != topo.RelCustomer {
			continue
		}
		if n == provider {
			found = true
		} else {
			others = append(others, n)
		}
	}
	if !found {
		return nil, fmt.Errorf("platform: AS%d is not a provider of AS%d", provider, asn)
	}
	for _, n := range others {
		pol.SetLocalPref(asn, n, 10)
	}
	k.pr.Engine.MarkDirtyFamily(family)
	return func() {
		for _, n := range others {
			pol.ClearLocalPref(asn, n)
		}
		k.pr.Engine.MarkDirtyFamily(family)
	}, nil
}
