package platform

import (
	"math"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

// Freeze marks the store read-only: after Freeze, Add fails, so the store
// can be shared by reference with every reader (measurements are never
// written after ingestion). Under the race detector a fingerprint of the
// measurement interiors is taken so VerifyFrozen can later prove nothing
// wrote through a shared pointer.
func (s *Store) Freeze() {
	s.frozen = true
	if raceEnabled {
		s.fp = s.fingerprint()
	}
}

// VerifyFrozen panics if a frozen store's measurements changed since
// Freeze — an illegal write through a shared *Measurement. The check only
// runs under the race detector (the debug configuration); elsewhere, and on
// unfrozen stores, it does nothing. The artifact cache calls it on every
// campaign fetch, so a write is caught at the next reader.
func (s *Store) VerifyFrozen() {
	if raceEnabled && s.frozen && s.fp != s.fingerprint() {
		panic("platform: frozen store's measurements were mutated in place (write through a shared *Measurement)")
	}
}

// fingerprint folds the mutation-prone interior fields of every measurement
// into one word (FNV-1a over a fixed projection). It covers every hop: its
// RTT, and its identity, which every record over the same path shares, so
// a write through one record's hop would corrupt them all. Only computed
// under the race detector; see race_on.go.
func (s *Store) fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixString := func(str string) {
		mix(uint64(len(str)))
		for i := 0; i < len(str); i++ {
			mix(uint64(str[i]))
		}
	}
	for _, m := range s.ms {
		mix(uint64(m.ID))
		mix(math.Float64bits(m.RTTms))
		mix(math.Float64bits(m.ThroughputMbps))
		mix(math.Float64bits(m.LossRate))
		mix(uint64(len(m.Hops)))
		for _, hop := range m.Hops {
			mix(math.Float64bits(hop.RTTms))
			mix(uint64(hop.TTL))
			mix(uint64(hop.ASN))
			mixString(hop.Addr)
			mixString(hop.City)
		}
		mix(uint64(len(m.ASPath)))
		if m.Failed {
			mix(1)
		}
		if m.Truncated {
			mix(3)
		}
	}
	return h
}

// Costs of SizeBytes, held to the record layout by
// TestSizeConstantsMatchLayout.
const (
	// perMeasurement is one probe.Measurement plus its slot in Store.ms.
	perMeasurement = 216
	// perHop is one probe.HopRecord.
	perHop = 16
	// perHopIdentity is one probe.Hop, shared by every record over the
	// same path.
	perHopIdentity = 48
	// perASN is one AS of a path, shared by every record over the path.
	perASN = 4
	// perSeenEntry is one map[int]bool entry of the dedup index.
	perSeenEntry = 16
	// perCovEntry is one coverage entry: map entry, StreamCoverage and
	// intent string.
	perCovEntry = 112
)

// SizeBytes estimates the store's resident size for the artifact store's
// byte bound: a flat per-measurement cost plus each record's hop RTTs, the
// hop identities and AS paths the records share, and the dedup and
// coverage indexes. A shared array — a path's hop identities or its AS
// path — is counted once, keyed by the address of its first element. It is
// an estimate, not an accounting — the LRU only needs relative magnitudes.
func (s *Store) SizeBytes() int64 {
	hops := make(map[*probe.Hop]bool)
	paths := make(map[*topo.ASN]bool)
	var n int64
	for _, m := range s.ms {
		n += perMeasurement + int64(len(m.Hops))*perHop
		if len(m.Hops) > 0 && !hops[m.Hops[0].Hop] {
			hops[m.Hops[0].Hop] = true
			n += int64(len(m.Hops)) * perHopIdentity
		}
		if len(m.ASPath) > 0 && !paths[&m.ASPath[0]] {
			paths[&m.ASPath[0]] = true
			n += int64(len(m.ASPath)) * perASN
		}
	}
	n += int64(len(s.seen)) * perSeenEntry
	n += int64(len(s.cov)) * perCovEntry
	return n
}
