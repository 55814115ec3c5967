// Package faults is a deterministic, seed-driven measurement-fault model.
// It reproduces the failure modes real measurement platforms suffer — probe
// timeouts, traceroutes truncated at a random hop, vantage points that die
// and revive (outage windows), skewed measurement timestamps, and duplicated
// or reordered records — so the estimator pipeline can be certified to
// degrade gracefully rather than silently bias (the chaos experiment, E15).
//
// Faults are a transform of a clean campaign, not a second simulation:
// Apply derives the faulted records from the clean ones. Every fault
// decision is drawn from a fresh RNG stream keyed only by
// ⟨seed, fault kind, measurement ID⟩ (outages: ⟨seed, vantage⟩) — never from
// a shared stream — so a given configuration is bit-reproducible regardless
// of call order or which other faults fired, and every fault level of a
// sweep shares the clean campaign's measurement noise. A configuration with
// every rate at zero returns the clean records themselves.
package faults

import (
	"context"
	"fmt"
	"sort"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
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

// RetryPolicy bounds how a prober reacts to failed attempts: at most
// MaxAttempts tries per probe. Retries are virtual — the simulation clock
// does not advance between attempts — so Apply reads only MaxAttempts.
// The backoff fields describe the deterministic exponential schedule a
// wall-clock prober would wait between attempts; they stay part of the
// policy because campaign artifact keys hash the whole struct.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per probe (default 1:
	// no retry — a single failed attempt yields a Failed record).
	MaxAttempts int
	// BaseBackoffMs is the wait before the second attempt.
	BaseBackoffMs float64
	// Multiplier grows the wait per additional attempt.
	Multiplier float64
	// MaxBackoffMs caps any single wait.
	MaxBackoffMs float64
}

// Apply derives the records a faulty platform would have ingested from a
// clean campaign's (DESIGN.md, "Fault model"). clean holds every record of
// a campaign stepped one hour at a time up to hours, in step order; each
// record's vantage is found in t by ⟨SrcASN, SrcCity⟩. Per record the retry
// loop runs over outages and drops: a record whose attempts all fail
// becomes a Failed marker, a survivor a copy with its Attempts and record
// faults. Every step's records, empty steps included, then pass through
// reorder and duplicate delivery. The clean records are never written, and
// a disabled cfg returns clean itself. Faults fired are counted on ctx's
// obs recorder under faults.*.
func Apply(ctx context.Context, cfg Config, retry RetryPolicy, t *topo.Topology, hours float64, clean []*probe.Measurement) ([]*probe.Measurement, error) {
	if !cfg.Enabled() {
		return clean, nil
	}
	in := newInjector(ctx, cfg)
	maxAttempts := max(retry.MaxAttempts, 1)
	out := make([]*probe.Measurement, 0, len(clean))
	var batch []*probe.Measurement
	i := 0
	for hour := 0.0; hour < hours; {
		hour++
		batch = batch[:0]
		for ; i < len(clean) && clean[i].Hour <= hour; i++ {
			m := clean[i]
			src, err := t.FindPoP(m.SrcASN, m.SrcCity)
			if err != nil {
				return nil, fmt.Errorf("faults: record %d: %w", m.ID, err)
			}
			batch = append(batch, in.attempt(m, src, maxAttempts))
		}
		out = append(out, in.deliver(batch...)...)
	}
	if i < len(clean) {
		return nil, fmt.Errorf("faults: record %d at hour %g lies past the %g-hour campaign", clean[i].ID, clean[i].Hour, hours)
	}
	return append(out, in.flush()...), nil
}

// injector holds one Apply's fault state: the vantages' outage schedules,
// the reorder buffer, and the duplicate-clone ID allocator.
type injector struct {
	ctx     context.Context // carries the obs recorder faults are counted on
	cfg     Config
	outages map[topo.PoPID]*outageSchedule
	pending []*probe.Measurement // records held back by reorder
	dupID   int                  // ID allocator for duplicate clones
}

func newInjector(ctx context.Context, cfg Config) *injector {
	return &injector{ctx: ctx, cfg: cfg, outages: make(map[topo.PoPID]*outageSchedule), dupID: dupIDBase}
}

// dupIDBase starts the duplicate-clone ID space far above any prober-issued
// ID so clones never collide with originals in a Store.
const dupIDBase = 1 << 30

// stream returns the pre-split RNG stream for one fault decision. The seed
// mix folds the fault kind and the per-measurement keys into the injector
// seed; mathx.NewRNG then SplitMix-expands it, so streams for adjacent keys
// are statistically independent.
func (in *injector) stream(kind, a, b uint64) *mathx.RNG {
	h := in.cfg.Seed
	for _, v := range [...]uint64{kind, a, b} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return mathx.NewRNG(h)
}

// attempt runs one clean record's attempts from vantage src. It returns a
// copy with its attempt count and record faults, or, when every attempt
// timed out, a Failed marker keeping only the identity fields, so a dead
// vantage's schedule shows up as tagged gaps rather than missing rows.
func (in *injector) attempt(m *probe.Measurement, src topo.PoPID, maxAttempts int) *probe.Measurement {
	for a := 1; a <= maxAttempts; a++ {
		if !in.attemptFails(src, m.Hour, m.ID, a) {
			f := *m
			f.Attempts = int32(a)
			in.mutate(&f, m.ID)
			return &f
		}
	}
	return &probe.Measurement{
		ID: m.ID, Hour: m.Hour, Intent: m.Intent, Trigger: m.Trigger,
		SrcASN: m.SrcASN, SrcCity: m.SrcCity, DstASN: m.DstASN, DstCity: m.DstCity,
		Server: m.Server, Family: m.Family, Failed: true, Attempts: int32(maxAttempts),
	}
}

// attemptFails reports whether attempt number attempt of probe seq fails:
// the vantage is inside an outage window or the per-attempt drop stream
// fires.
func (in *injector) attemptFails(src topo.PoPID, hour float64, seq, attempt int) bool {
	if in.vantageDown(src, hour) {
		obs.Add(in.ctx, "faults.outage_failures", 1)
		return true
	}
	if in.cfg.DropRate <= 0 {
		return false
	}
	if in.stream(kindDrop, uint64(seq), uint64(attempt)).Bernoulli(in.cfg.DropRate) {
		obs.Add(in.ctx, "faults.drops", 1)
		return true
	}
	return false
}

// mutate applies the record faults to a surviving record of probe seq:
// truncate the traceroute at a random hop and skew the record timestamp,
// each from its own stream. m must be the caller's own copy; truncation
// re-slices Hops and never writes the shared hop array.
func (in *injector) mutate(m *probe.Measurement, seq int) {
	if in.cfg.TruncateRate > 0 && len(m.Hops) > 1 {
		r := in.stream(kindTruncate, uint64(seq), 0)
		if r.Bernoulli(in.cfg.TruncateRate) {
			keep := 1 + r.Intn(len(m.Hops)-1) // always keep hop 1, never all
			m.Hops = m.Hops[:keep]
			m.Truncated = true
			obs.Add(in.ctx, "faults.truncations", 1)
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

// deliver passes one step's records through the ingestion faults: with
// probability ReorderRate a record is held back and delivered after the next
// step's batch; with probability DuplicateRate a delivered record is cloned
// (the clone gets a fresh ID and DuplicateOf set, mirroring a retransmitted
// upload landing twice). flush drains what is still held at the end. With
// both rates zero the input slice is returned untouched.
func (in *injector) deliver(ms ...*probe.Measurement) []*probe.Measurement {
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
			obs.Add(in.ctx, "faults.reorders", 1)
			continue
		}
		out = append(out, m)
		if in.cfg.DuplicateRate > 0 && r.Bernoulli(in.cfg.DuplicateRate) {
			dup := *m
			in.dupID++
			dup.ID = in.dupID
			dup.DuplicateOf = m.ID
			out = append(out, &dup)
			obs.Add(in.ctx, "faults.duplicates", 1)
		}
	}
	// Held records land after this batch — strictly out of order.
	return append(out, held...)
}

// flush drains any records still held by the reorder buffer.
func (in *injector) flush() []*probe.Measurement {
	out := in.pending
	in.pending = nil
	return out
}

// window is one closed-open outage interval [Start, End) in hours.
type window struct{ Start, End float64 }

// outageSchedule lazily generates a vantage point's alternating up/down
// process from the vantage's own pre-split stream. Generation is monotone
// in time and consumes the stream in a fixed order, so membership queries
// are deterministic regardless of query order.
type outageSchedule struct {
	rng     *mathx.RNG
	windows []window
	cursor  float64 // schedule is materialized up to here
}

func (in *injector) schedule(src topo.PoPID) *outageSchedule {
	sc, ok := in.outages[src]
	if !ok {
		sc = &outageSchedule{rng: in.stream(kindOutage, uint64(src), 0)}
		in.outages[src] = sc
	}
	return sc
}

func (in *injector) extend(sc *outageSchedule, hour float64) {
	meanUp := 1000 / in.cfg.OutagesPerKiloHour
	meanDown := in.cfg.OutageMeanHours
	if meanDown <= 0 {
		meanDown = 24
	}
	for sc.cursor <= hour {
		up := sc.rng.Exponential(1 / meanUp)
		down := sc.rng.Exponential(1 / meanDown)
		sc.windows = append(sc.windows, window{Start: sc.cursor + up, End: sc.cursor + up + down})
		sc.cursor += up + down
	}
}

// vantageDown reports whether the vantage point is inside an outage window
// at the given hour.
func (in *injector) vantageDown(src topo.PoPID, hour float64) bool {
	if in.cfg.OutagesPerKiloHour <= 0 {
		return false
	}
	sc := in.schedule(src)
	in.extend(sc, hour)
	// First window ending after hour is the only candidate.
	i := sort.Search(len(sc.windows), func(i int) bool { return sc.windows[i].End > hour })
	return i < len(sc.windows) && sc.windows[i].Start <= hour
}
