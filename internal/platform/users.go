package platform

import (
	"fmt"
	"slices"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

// UserPop is a population of users behind one access PoP using one content
// destination.
type UserPop struct {
	Src topo.PoPID
	Dst topo.ASN
	// Size scales the expected number of tests per step.
	Size float64
}

// UserModel generates user-initiated speed tests whose propensity depends on
// current conditions — the paper's speed-test collider made mechanical.
// A test becomes more likely when (a) perceived performance is worse than
// the user's habitual baseline and (b) the route recently changed (e.g. the
// user just switched ISPs or their ISP re-routed). Because both a route
// change and bad performance raise the probability of a test *independently*,
// analyzing only the tests that ran induces a spurious association between
// the two even when neither causes the other.
type UserModel struct {
	Pops []UserPop
	rng  *mathx.RNG

	// BaseRate is the expected tests per step per unit Size under normal
	// conditions (default 0.2).
	BaseRate float64
	// PerfBoost multiplies the rate per 50% RTT degradation vs. the
	// habitual EMA baseline (default 3).
	PerfBoost float64
	// ChangeBoost multiplies the rate on steps where the AS path differs
	// from the previous step (default 3).
	ChangeBoost float64

	// habit is the per-source-PoP state, indexed by PoPID: populations
	// behind one PoP share it.
	habit []popHabit
}

// popHabit is what the users behind one PoP carry between steps.
type popHabit struct {
	// seen reports that the PoP has been observed: emaRTT and lastPath are
	// set.
	seen bool
	// emaRTT is the habitual RTT baseline.
	emaRTT float64
	// lastPath is the AS path on the previous step: the memoized Path's
	// own slice, read-only.
	lastPath []topo.ASN
}

// NewUserModel returns a user model with its own RNG stream.
func NewUserModel(pops []UserPop, seed uint64) *UserModel {
	return &UserModel{
		Pops: pops, rng: mathx.NewRNG(seed),
		BaseRate: 0.2, PerfBoost: 3, ChangeBoost: 3,
	}
}

// Fork returns a copy of the model that draws exactly what the model would
// from here on: its RNG by value, its knobs, and a copy of every PoP's
// habit (the remembered AS paths are read-only and stay shared). Neither
// copy's steps move the other.
func (u *UserModel) Fork() *UserModel {
	f := *u
	rng := *u.rng
	f.rng = &rng
	f.Pops = slices.Clone(u.Pops)
	f.habit = slices.Clone(u.habit)
	return &f
}

// StepObservation is what the user model saw for one population this step —
// exported so experiments can compute ground truth (e.g. "all traffic" vs
// "tests that ran").
type StepObservation struct {
	Pop          UserPop
	RTTms        float64 // true current RTT
	RouteChanged bool
	Degradation  float64 // fractional RTT excess over habitual baseline
	TestsRun     int
}

// Step advances the model one engine step: it observes current conditions
// for every population, updates habit baselines, decides how many tests run
// (Poisson with state-dependent rate) and executes them through the prober.
// It appends the measurements to ms and returns the extended slice, so a
// caller stepping in a loop can reuse one buffer. When obs is non-nil it
// also appends one StepObservation per population to *obs; a caller that
// reads no observations passes nil and none are built.
func (u *UserModel) Step(p *probe.Prober, ms []*probe.Measurement, obs *[]StepObservation) ([]*probe.Measurement, error) {
	for _, pop := range u.Pops {
		perf, err := p.Engine.PerfToAS(pop.Src, pop.Dst)
		if err != nil {
			return nil, fmt.Errorf("platform: user pop %v: %w", pop, err)
		}
		if n := int(pop.Src) + 1; n > len(u.habit) {
			u.habit = append(u.habit, make([]popHabit, n-len(u.habit))...)
		}
		h := &u.habit[pop.Src]
		path := perf.Path.ASPath
		changed := h.seen && !slices.Equal(h.lastPath, path)
		h.lastPath = path

		ema := h.emaRTT
		if !h.seen {
			ema = perf.RTTms
		}
		h.seen = true
		degradation := 0.0
		if ema > 0 && perf.RTTms > ema {
			degradation = (perf.RTTms - ema) / ema
		}
		// Habit updates slowly so sustained shifts eventually normalize.
		h.emaRTT = 0.95*ema + 0.05*perf.RTTms

		// Rate scales with degradation (PerfBoost per 50% excess RTT) and
		// jumps multiplicatively when the route just changed.
		rate := u.BaseRate * pop.Size * (1 + u.PerfBoost*degradation*2)
		if changed {
			rate *= u.ChangeBoost
		}
		// Each test runs over the path just measured: the same routes,
		// PoP and hour a fresh SpeedTest would read.
		n := u.rng.Poisson(rate)
		for i := 0; i < n; i++ {
			ms = append(ms, p.SpeedTestOn(perf, probe.IntentUserInitiated, "user"))
		}
		if obs != nil {
			*obs = append(*obs, StepObservation{
				Pop: pop, RTTms: perf.RTTms, RouteChanged: changed,
				Degradation: degradation, TestsRun: n,
			})
		}
	}
	return ms, nil
}
