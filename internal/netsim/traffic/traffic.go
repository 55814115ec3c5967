// Package traffic models background load: diurnal demand curves, smooth
// stochastic variation, and flash crowds. Link utilization produced here is
// the simulator's congestion variable C — the confounder of the paper's
// running example, since it both raises queueing latency (C → L) and
// triggers load-adaptive egress switching (C → R).
//
// Utilization is memoized per link: a simulation step reads each link many
// times (the egress controller, every probe and every user population
// crossing it), and every read after the first of a ⟨link, step, hour⟩
// returns the stored value. TestUtilizationMemoMatchesMissPath holds the
// memo to a recompute.
package traffic

import (
	"math"
	"slices"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
)

// Diurnal returns the demand multiplier at the given UTC hour for a city
// with the given UTC offset. The curve peaks around 20:00 local (evening
// streaming) and bottoms around 04:00 local, ranging over [0.55, 1.45].
func Diurnal(utcHour, utcOffset float64) float64 {
	local := math.Mod(utcHour+utcOffset, 24)
	if local < 0 {
		local += 24
	}
	// Peak at 20h: cos((local-20)/24·2π) = 1 at local = 20.
	return 1 + 0.45*math.Cos((local-20)/24*2*math.Pi)
}

// FlashCrowd is a transient demand surge on one link.
type FlashCrowd struct {
	Link      topo.LinkID
	StartHour float64
	Hours     float64
	// Magnitude adds to utilization at the peak; the surge ramps linearly
	// up over the first quarter and down over the last quarter.
	Magnitude float64
}

// activeFactor returns the surge contribution at time t.
func (f FlashCrowd) activeFactor(t float64) float64 {
	if t < f.StartHour || t > f.StartHour+f.Hours {
		return 0
	}
	pos := (t - f.StartHour) / f.Hours
	switch {
	case pos < 0.25:
		return f.Magnitude * pos / 0.25
	case pos > 0.75:
		return f.Magnitude * (1 - pos) / 0.25
	default:
		return f.Magnitude
	}
}

// Model computes per-link utilization over time. Each link carries an AR(1)
// noise process whose RNG is derived from the model seed and the link ID, so
// two runs with the same seed produce identical noise for links they share —
// the property counterfactual replay relies on.
//
// Each link's state is one slot of a slice indexed by LinkID: its resolved
// baseline and UTC offset, its noise, its surges and load shifts, and its
// last value with the ⟨step, hour, generation⟩ it was computed at.
// AddFlashCrowd and AddLoadShift advance the generation, which invalidates
// every stored value.
type Model struct {
	topo *topo.Topology
	seed uint64
	// links holds each link's state, indexed by LinkID; it grows on demand
	// as the topology gains links (an IXP join) or a surge names a link
	// not yet read.
	links []linkState
	// gen counts AddFlashCrowd and AddLoadShift calls; a memoized value is
	// valid only under the generation it was computed in.
	gen uint64
}

// linkState is one link's inputs to Utilization, its noise process and its
// memoized last value.
type linkState struct {
	// resolved reports that utcOffset, baseUtil and noise are set: they
	// are read from the topology on the link's first Utilization.
	resolved  bool
	utcOffset float64
	baseUtil  float64
	noise     ar1
	// flash and shifts are the link's surges and load shifts, in the order
	// they were added, so their sums run in that order.
	flash  []FlashCrowd
	shifts []loadShift

	// The memo: val is Utilization at ⟨memoStep, memoHour (the hour's
	// bits), memoGen⟩, valid when memoOK.
	memoOK   bool
	memoStep int
	memoHour uint64
	memoGen  uint64
	val      float64
}

type loadShift struct {
	fromHour float64
	delta    float64
}

type ar1 struct {
	rng   mathx.RNG
	state float64
	// phi is persistence, sigma the innovation scale.
	phi, sigma float64
	lastStep   int
}

// NewModel returns a utilization model for the topology.
func NewModel(t *topo.Topology, seed uint64) *Model {
	return &Model{topo: t, seed: seed}
}

// Fork returns an independent copy of the model that reads t, a clone of
// the model's own topology: the fork keeps every link's noise process
// (its RNG by value), surges, load shifts and memoized value, so both
// return the same utilizations from here on, and a surge or load shift
// added to either stays its own. The fork's surge and shift slices share
// the original's arrays clipped to their length: the fork's first append
// copies them, and the original's appends land past what the fork reads.
func (m *Model) Fork(t *topo.Topology) *Model {
	links := slices.Clone(m.links)
	for i := range links {
		s := &links[i]
		s.flash = slices.Clip(s.flash)
		s.shifts = slices.Clip(s.shifts)
	}
	return &Model{topo: t, seed: m.seed, links: links, gen: m.gen}
}

// link returns id's state, growing the table to hold it.
func (m *Model) link(id topo.LinkID) *linkState {
	if n := int(id) + 1; n > len(m.links) {
		m.links = append(m.links, make([]linkState, n-len(m.links))...)
	}
	return &m.links[id]
}

// AddFlashCrowd schedules a demand surge.
func (m *Model) AddFlashCrowd(f FlashCrowd) {
	s := m.link(f.Link)
	s.flash = append(s.flash, f)
	m.gen++
}

// AddLoadShift permanently changes a link's baseline utilization from the
// given hour onward (positive or negative).
func (m *Model) AddLoadShift(id topo.LinkID, fromHour, delta float64) {
	s := m.link(id)
	s.shifts = append(s.shifts, loadShift{fromHour, delta})
	m.gen++
}

// resolve reads the link's baseline and its city's UTC offset from the
// topology and seeds its noise process.
func (m *Model) resolve(id topo.LinkID, s *linkState) {
	l := m.topo.Link(id)
	s.utcOffset = m.topo.Registry.MustGet(m.topo.PoP(l.A).City).UTCOffset
	s.baseUtil = l.BaseUtil
	s.noise = ar1{
		rng:      *mathx.NewRNG(m.seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
		phi:      0.9,
		sigma:    0.02,
		lastStep: -1,
	}
	s.resolved = true
}

// Utilization returns the link's utilization at the given UTC hour, for the
// given integer step index (noise advances once per step). The result is
// clamped to [0, 0.985] so queueing delay stays finite.
func (m *Model) Utilization(id topo.LinkID, utcHour float64, step int) float64 {
	s := m.link(id)
	hour := math.Float64bits(utcHour)
	if s.memoOK && s.memoStep == step && s.memoHour == hour && s.memoGen == m.gen {
		return s.val
	}
	if !s.resolved {
		m.resolve(id, s)
	}
	base := s.baseUtil * Diurnal(utcHour, s.utcOffset)

	n := &s.noise
	for n.lastStep < step {
		n.state = n.phi*n.state + n.rng.Normal(0, n.sigma)
		n.lastStep++
	}
	u := base + n.state
	for _, f := range s.flash {
		u += f.activeFactor(utcHour)
	}
	for _, sh := range s.shifts {
		if utcHour >= sh.fromHour {
			u += sh.delta
		}
	}
	if u < 0 {
		u = 0
	} else if u > 0.985 {
		u = 0.985
	}
	s.memoOK, s.memoStep, s.memoHour, s.memoGen, s.val = true, step, hour, m.gen, u
	return u
}

// QueueingDelayMs converts utilization into the mean queueing delay added
// by a link, with an M/M/1-flavoured ρ/(1−ρ) blow-up scaled by scaleMs.
func QueueingDelayMs(util, scaleMs float64) float64 {
	if util >= 1 {
		util = 0.999
	}
	if util < 0 {
		util = 0
	}
	return scaleMs * util / (1 - util)
}

// LossRate maps utilization to packet loss: zero below 0.9, rising linearly
// to 5% at saturation.
func LossRate(util float64) float64 {
	if util <= 0.9 {
		return 0
	}
	frac := (util - 0.9) / 0.1
	if frac > 1 {
		frac = 1
	}
	return 0.05 * frac
}
