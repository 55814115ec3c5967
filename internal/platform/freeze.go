package platform

import "math"

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
// into one word (FNV-1a over a fixed projection). Only computed under the
// race detector; see race_on.go.
func (s *Store) fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for _, m := range s.ms {
		mix(uint64(m.ID))
		mix(math.Float64bits(m.RTTms))
		mix(math.Float64bits(m.ThroughputMbps))
		mix(math.Float64bits(m.LossRate))
		mix(uint64(len(m.Hops)))
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

// SizeBytes estimates the store's resident size for the artifact store's
// byte bound: a flat per-measurement cost plus the variable-length hop and
// path payloads, plus the dedup and coverage indexes. It is an estimate,
// not an accounting — the LRU only needs relative magnitudes.
func (s *Store) SizeBytes() int64 {
	// Rough fixed footprint of one Measurement struct plus slice headers
	// and map entries in the indexes.
	const perMeasurement = 240
	const perHop = 48
	const perPathEntry = 4
	const perSeenEntry = 16 // map[int]bool entry
	const perCovEntry = 112 // map entry + StreamCoverage + intent string
	var n int64
	for _, m := range s.ms {
		n += perMeasurement
		n += int64(len(m.Hops)) * perHop
		n += int64(len(m.ASPath)) * perPathEntry
	}
	n += int64(len(s.seen)) * perSeenEntry
	n += int64(len(s.cov)) * perCovEntry
	return n
}
