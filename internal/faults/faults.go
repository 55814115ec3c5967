// Package faults is a deterministic, seed-driven measurement-fault injector.
// It wraps the probe/engine boundary and reproduces the failure modes real
// measurement platforms suffer — probe timeouts, traceroutes truncated at a
// random hop, vantage points that die and revive (outage windows), skewed
// measurement timestamps, and duplicated or reordered records — so the
// estimator pipeline can be certified to degrade gracefully rather than
// silently bias (the chaos experiment, E15).
//
// Determinism contract (the "RNG pre-split rule for faults"): every fault
// decision is drawn from a fresh RNG stream keyed only by
// ⟨injector seed, fault kind, measurement sequence number⟩ — never from a
// shared stream — so a given configuration is bit-reproducible regardless of
// call order, worker count, or which other faults fired. And because the
// injector owns all of its streams, consulting it never advances the
// prober's measurement-noise RNG: a configuration with every rate at zero is
// bit-identical to running with no injector at all (enforced by
// TestFaultRateZeroBitIdentity).
package faults

import (
	"fmt"
	"sort"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

// Config sets per-fault intensities. The zero value disables every fault.
type Config struct {
	// Seed keys every fault stream; two injectors with equal configs make
	// identical decisions.
	Seed uint64
	// DropRate is the per-attempt probability that a probe times out.
	DropRate float64
	// TruncateRate is the probability a traceroute loses its tail hops.
	TruncateRate float64
	// TimestampSkewStdHours is the standard deviation of per-record clock
	// skew, in simulated hours (vantage clocks drift; panels bin by time).
	TimestampSkewStdHours float64
	// DuplicateRate is the probability a delivered record arrives twice.
	DuplicateRate float64
	// ReorderRate is the probability a record is held back and delivered
	// after later records (out-of-order ingestion).
	ReorderRate float64
	// OutagesPerKiloHour is the expected number of outages per vantage per
	// 1000 simulated hours. Zero disables outage windows.
	OutagesPerKiloHour float64
	// OutageMeanHours is the mean outage duration (default 24 when
	// outages are enabled).
	OutageMeanHours float64
}

// Enabled reports whether any fault can fire under this configuration.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.TruncateRate > 0 || c.TimestampSkewStdHours > 0 ||
		c.DuplicateRate > 0 || c.ReorderRate > 0 || c.OutagesPerKiloHour > 0
}

// Scaled returns the canonical fault mix at the given intensity in [0, 1] —
// the grid the chaos experiment sweeps. Intensity 0 is the zero Config
// (bit-identical to no injector); intensity 1 is a catastrophically lossy
// platform.
func Scaled(seed uint64, intensity float64) Config {
	if intensity <= 0 {
		return Config{Seed: seed}
	}
	if intensity > 1 {
		intensity = 1
	}
	return Config{
		Seed:                  seed,
		DropRate:              0.5 * intensity,
		TruncateRate:          0.5 * intensity,
		TimestampSkewStdHours: 2 * intensity,
		DuplicateRate:         0.25 * intensity,
		ReorderRate:           0.25 * intensity,
		OutagesPerKiloHour:    15 * intensity,
		OutageMeanHours:       36,
	}
}

// String renders the configuration compactly for experiment tables.
func (c Config) String() string {
	return fmt.Sprintf("drop=%.2f trunc=%.2f skew=%.1fh dup=%.2f reorder=%.2f outages=%.1f/kh",
		c.DropRate, c.TruncateRate, c.TimestampSkewStdHours, c.DuplicateRate, c.ReorderRate, c.OutagesPerKiloHour)
}

// Fault kinds salt the per-measurement RNG streams so the drop decision for
// probe #7 is independent of its truncation or skew draw.
const (
	kindDrop uint64 = iota + 1
	kindTruncate
	kindSkew
	kindDeliver
	kindOutage
)

// Injector implements probe.FaultHook plus the ingestion-side faults
// (duplicate, reorder) applied through Deliver. It is not safe for
// concurrent use; give each world its own injector, exactly like each world
// gets its own prober.
type Injector struct {
	cfg     Config
	outages map[topo.PoPID]*outageSchedule
	pending []*probe.Measurement // records held back by reorder
	dupID   int                  // ID allocator for duplicate clones
	stats   Stats
}

// Stats counts the faults an injector actually fired — the quantities the
// run-trace observability layer surfaces per experiment. Reading them never
// advances any fault stream.
type Stats struct {
	// Drops counts probe attempts failed by the drop stream; OutageFailures
	// counts attempts failed because the vantage was inside an outage window.
	Drops, OutageFailures int64
	// Truncations counts traceroutes that lost tail hops.
	Truncations int64
	// Duplicates and Reorders count ingestion-side deliveries cloned or held
	// back out of order.
	Duplicates, Reorders int64
}

// Stats returns the counts of faults fired so far.
func (in *Injector) Stats() Stats { return in.stats }

// New builds an injector for the configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, outages: make(map[topo.PoPID]*outageSchedule), dupID: dupIDBase}
}

// dupIDBase starts the duplicate-clone ID space far above any prober-issued
// ID so clones never collide with originals in a Store.
const dupIDBase = 1 << 30

// stream returns the pre-split RNG stream for one fault decision. The seed
// mix folds the fault kind and the per-measurement keys into the injector
// seed; mathx.NewRNG then SplitMix-expands it, so streams for adjacent keys
// are statistically independent.
func (in *Injector) stream(kind, a, b uint64) *mathx.RNG {
	h := in.cfg.Seed
	for _, v := range [...]uint64{kind, a, b} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return mathx.NewRNG(h)
}

// AttemptFails implements probe.FaultHook: the attempt fails if the vantage
// is inside an outage window or the per-attempt drop stream fires.
func (in *Injector) AttemptFails(src topo.PoPID, hour float64, seq, attempt int) bool {
	if in.VantageDown(src, hour) {
		in.stats.OutageFailures++
		return true
	}
	if in.cfg.DropRate <= 0 {
		return false
	}
	if in.stream(kindDrop, uint64(seq), uint64(attempt)).Bernoulli(in.cfg.DropRate) {
		in.stats.Drops++
		return true
	}
	return false
}

// MutateMeasurement implements probe.FaultHook: truncate the traceroute at
// a random hop and skew the record timestamp, each from its own stream.
func (in *Injector) MutateMeasurement(m *probe.Measurement, seq int) {
	if in.cfg.TruncateRate > 0 && len(m.Hops) > 1 {
		r := in.stream(kindTruncate, uint64(seq), 0)
		if r.Bernoulli(in.cfg.TruncateRate) {
			keep := 1 + r.Intn(len(m.Hops)-1) // always keep hop 1, never all
			m.Hops = m.Hops[:keep]
			m.Truncated = true
			in.stats.Truncations++
		}
	}
	if in.cfg.TimestampSkewStdHours > 0 {
		r := in.stream(kindSkew, uint64(seq), 0)
		m.Hour += r.Normal(0, in.cfg.TimestampSkewStdHours)
		if m.Hour < 0 {
			m.Hour = 0
		}
	}
}

// Deliver passes completed records through the ingestion faults: with
// probability ReorderRate a record is held back and delivered after the next
// batch; with probability DuplicateRate a delivered record is cloned (the
// clone gets a fresh ID and DuplicateOf set, mirroring a retransmitted
// upload landing twice). Call Flush at end of campaign to drain held
// records. With both rates zero the input slice is returned untouched.
func (in *Injector) Deliver(ms ...*probe.Measurement) []*probe.Measurement {
	if in.cfg.DuplicateRate <= 0 && in.cfg.ReorderRate <= 0 {
		return ms
	}
	held := in.pending
	in.pending = nil
	out := make([]*probe.Measurement, 0, len(ms)+len(held))
	for _, m := range ms {
		r := in.stream(kindDeliver, uint64(m.ID), 0)
		if in.cfg.ReorderRate > 0 && r.Bernoulli(in.cfg.ReorderRate) {
			in.pending = append(in.pending, m)
			in.stats.Reorders++
			continue
		}
		out = append(out, m)
		if in.cfg.DuplicateRate > 0 && r.Bernoulli(in.cfg.DuplicateRate) {
			dup := *m
			in.dupID++
			dup.ID = in.dupID
			dup.DuplicateOf = m.ID
			out = append(out, &dup)
			in.stats.Duplicates++
		}
	}
	// Held records land after this batch — strictly out of order.
	return append(out, held...)
}

// Flush drains any records still held by the reorder buffer.
func (in *Injector) Flush() []*probe.Measurement {
	out := in.pending
	in.pending = nil
	return out
}

// Window is one closed-open outage interval [Start, End) in hours.
type Window struct{ Start, End float64 }

// outageSchedule lazily generates a vantage point's alternating up/down
// process from the vantage's own pre-split stream. Generation is monotone
// in time and consumes the stream in a fixed order, so membership queries
// are deterministic regardless of query order.
type outageSchedule struct {
	rng     *mathx.RNG
	windows []Window
	cursor  float64 // schedule is materialized up to here
}

func (in *Injector) schedule(src topo.PoPID) *outageSchedule {
	sc, ok := in.outages[src]
	if !ok {
		sc = &outageSchedule{rng: in.stream(kindOutage, uint64(src), 0)}
		in.outages[src] = sc
	}
	return sc
}

func (in *Injector) extend(sc *outageSchedule, hour float64) {
	meanUp := 1000 / in.cfg.OutagesPerKiloHour
	meanDown := in.cfg.OutageMeanHours
	if meanDown <= 0 {
		meanDown = 24
	}
	for sc.cursor <= hour {
		up := sc.rng.Exponential(1 / meanUp)
		down := sc.rng.Exponential(1 / meanDown)
		sc.windows = append(sc.windows, Window{Start: sc.cursor + up, End: sc.cursor + up + down})
		sc.cursor += up + down
	}
}

// VantageDown reports whether the vantage point is inside an outage window
// at the given hour.
func (in *Injector) VantageDown(src topo.PoPID, hour float64) bool {
	if in.cfg.OutagesPerKiloHour <= 0 {
		return false
	}
	sc := in.schedule(src)
	in.extend(sc, hour)
	// First window ending after hour is the only candidate.
	i := sort.Search(len(sc.windows), func(i int) bool { return sc.windows[i].End > hour })
	return i < len(sc.windows) && sc.windows[i].Start <= hour
}
