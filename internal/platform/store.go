// Package platform simulates the measurement infrastructure the paper's §4
// wants to exist: vantage points with scheduled baselines, M-Lab-style
// metro server pools behind a randomizing load balancer, user-initiated
// tests whose propensity depends on network state (the endogeneity of §4's
// point 4), conditional measurement activation on BGP changes (point 1),
// intent tagging (point 2), and exogenous-variation knobs (point 3).
package platform

import (
	"fmt"
	"sort"

	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

// StreamCoverage summarizes one intent stream's health: how many records
// were scheduled (all rows, including explicit failure markers), how many
// actually delivered a usable measurement, and how many arrived degraded.
// Scheduled == Delivered + Failed by construction; coverage is the
// Delivered/Scheduled ratio degradation reports lean on.
type StreamCoverage struct {
	Scheduled  int
	Delivered  int
	Failed     int
	Truncated  int
	Duplicated int
}

// Fraction returns Delivered/Scheduled (1 for an empty stream).
func (c StreamCoverage) Fraction() float64 {
	if c.Scheduled == 0 {
		return 1
	}
	return float64(c.Delivered) / float64(c.Scheduled)
}

func (c *StreamCoverage) add(m *probe.Measurement) {
	c.Scheduled++
	if m.Failed {
		c.Failed++
	} else {
		c.Delivered++
	}
	if m.Truncated {
		c.Truncated++
	}
	if m.DuplicateOf != 0 {
		c.Duplicated++
	}
}

// Store accumulates measurements from all collectors. It enforces ID
// uniqueness — a platform ingesting the same record twice is a bug, while
// genuine duplicate deliveries (fault-injected retransmits) arrive as
// distinct records with DuplicateOf set — and maintains per-intent coverage
// counters so analyses can report how much data each stream stood on.
// A Store has a freeze lifecycle: once a campaign completes, the artifact
// cache calls Freeze and the store becomes read-only — Add fails — so every
// fetch shares the one frozen store instead of copying it. Under the race
// detector, Freeze fingerprints the measurement interiors and VerifyFrozen
// re-checks them on every fetch, so any illegal write through a shared
// *Measurement is caught loudly.
type Store struct {
	ms []*probe.Measurement
	// seen indexes every stored ID. It stays nil while IDs arrive strictly
	// increasing — then a new ID is unique iff it exceeds the last — and
	// is built on the first ID that does not.
	seen   map[int]bool
	cov    map[probe.Intent]*StreamCoverage
	frozen bool
	fp     uint64 // race builds only: interior fingerprint taken at Freeze
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{cov: make(map[probe.Intent]*StreamCoverage)}
}

// Add appends measurements, rejecting any whose ID the store has already
// seen. On error the offending record and everything after it are not
// added; earlier records in the same call remain (the caller is mid-crash
// anyway — the campaign runner surfaces the error and stops the run).
func (s *Store) Add(ms ...*probe.Measurement) error {
	if s.frozen {
		return fmt.Errorf("platform: Add on frozen store (build a new store instead)")
	}
	for _, m := range ms {
		if s.seen == nil && len(s.ms) > 0 && m.ID <= s.ms[len(s.ms)-1].ID {
			s.seen = make(map[int]bool, len(s.ms))
			for _, old := range s.ms {
				s.seen[old.ID] = true
			}
		}
		if s.seen != nil {
			if s.seen[m.ID] {
				return fmt.Errorf("platform: duplicate measurement ID %d (intent %s, hour %.2f)", m.ID, m.Intent, m.Hour)
			}
			s.seen[m.ID] = true
		}
		c := s.cov[m.Intent]
		if c == nil {
			c = &StreamCoverage{}
			s.cov[m.Intent] = c
		}
		c.add(m)
		s.ms = append(s.ms, m)
	}
	return nil
}

// Len returns the number of stored measurements.
func (s *Store) Len() int { return len(s.ms) }

// All returns all measurements (shared backing slice; do not mutate).
func (s *Store) All() []*probe.Measurement { return s.ms }

// TotalCoverage sums coverage across every intent stream.
func (s *Store) TotalCoverage() StreamCoverage {
	var total StreamCoverage
	for _, c := range s.cov {
		total.Scheduled += c.Scheduled
		total.Delivered += c.Delivered
		total.Failed += c.Failed
		total.Truncated += c.Truncated
		total.Duplicated += c.Duplicated
	}
	return total
}

// Filter returns measurements satisfying the predicate.
func (s *Store) Filter(keep func(*probe.Measurement) bool) []*probe.Measurement {
	var out []*probe.Measurement
	for _, m := range s.ms {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out
}

// ByIntent returns measurements with the given intent tag.
func (s *Store) ByIntent(in probe.Intent) []*probe.Measurement {
	return s.Filter(func(m *probe.Measurement) bool { return m.Intent == in })
}

// Unit identifies an ⟨ASN, city⟩ aggregation unit — the granularity of the
// paper's Table 1 ("users within the same ASN and city are likely to share
// routing policies, last-mile conditions, and local peering options").
type Unit struct {
	ASN  topo.ASN
	City string
}

func (u Unit) String() string { return fmt.Sprintf("AS%d/%s", u.ASN, u.City) }

// UnitOf returns the source unit of a measurement.
func UnitOf(m *probe.Measurement) Unit { return Unit{ASN: m.SrcASN, City: m.SrcCity} }

// Units lists the distinct source units present in the store, sorted.
func (s *Store) Units() []Unit {
	seen := make(map[Unit]bool)
	for _, m := range s.ms {
		seen[UnitOf(m)] = true
	}
	out := make([]Unit, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return out[i].City < out[j].City
	})
	return out
}

// Frame flattens measurements into a columnar dataset with the numeric
// columns estimators need: hour, src_asn, dst_asn, rtt_ms, tput_mbps,
// loss, family, plus ground-truth columns true_rtt_ms and true_max_util
// (for validation only). Failed records carry no performance data and are
// excluded; coverage counters on the Store account for them.
func Frame(ms []*probe.Measurement) *data.Frame {
	kept := ms[:0:0]
	for _, m := range ms {
		if !m.Failed {
			kept = append(kept, m)
		}
	}
	n := len(kept)
	cols := map[string][]float64{
		"hour": make([]float64, n), "src_asn": make([]float64, n),
		"dst_asn": make([]float64, n), "rtt_ms": make([]float64, n),
		"tput_mbps": make([]float64, n), "loss": make([]float64, n),
		"family": make([]float64, n), "true_rtt_ms": make([]float64, n),
		"true_max_util": make([]float64, n),
	}
	for i, m := range kept {
		cols["hour"][i] = m.Hour
		cols["src_asn"][i] = float64(m.SrcASN)
		cols["dst_asn"][i] = float64(m.DstASN)
		cols["rtt_ms"][i] = m.RTTms
		cols["tput_mbps"][i] = m.ThroughputMbps
		cols["loss"][i] = m.LossRate
		cols["family"][i] = float64(m.Family)
		cols["true_rtt_ms"][i] = m.TrueRTTms
		cols["true_max_util"][i] = m.TrueMaxUtil
	}
	f, err := data.FromColumns(cols)
	if err != nil {
		panic(err) // impossible: all columns same length by construction
	}
	return f
}

// MedianRTTSeries bins one unit's measurements into fixed windows of
// binHours covering [startHour, endHour) and returns the per-bin median RTT.
// Failed records are tagged gaps, not observations, and are skipped. Empty
// bins are filled by linear interpolation between neighbours (carrying the
// edge values outward) and reported in the second return value, so
// synthetic-control panels stay rectangular even under bursty user-initiated
// sampling; callers that need the raw mask (for coverage-aware panels) can
// reconstruct it from emptyBins.
func MedianRTTSeries(ms []*probe.Measurement, u Unit, startHour, endHour, binHours float64) (series []float64, emptyBins []int) {
	nBins := int((endHour - startHour) / binHours)
	buckets := make([][]float64, nBins)
	for _, m := range ms {
		if m.Failed || UnitOf(m) != u || m.Hour < startHour || m.Hour >= endHour {
			continue
		}
		b := int((m.Hour - startHour) / binHours)
		if b >= 0 && b < nBins {
			buckets[b] = append(buckets[b], m.RTTms)
		}
	}
	series = make([]float64, nBins)
	present := make([]bool, nBins)
	for i, b := range buckets {
		if len(b) > 0 {
			series[i] = mathx.Median(b)
			present[i] = true
		} else {
			emptyBins = append(emptyBins, i)
		}
	}
	mathx.InterpolateMissing(series, present)
	return series, emptyBins
}
