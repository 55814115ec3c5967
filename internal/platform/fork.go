package platform

import (
	"math"

	"sisyphus/internal/probe"
)

// Freeze marks the store read-only. After Freeze, Add fails and Fork shares
// the measurement slice by reference instead of cloning every record. Under
// the race detector a fingerprint of the measurement interiors is taken so
// later forks can verify nothing wrote through a shared pointer.
func (s *Store) Freeze() {
	s.frozen = true
	if raceEnabled {
		s.fp = s.fingerprint()
	}
}

// Fork returns an independent store the caller may extend and mutate.
//
// On a frozen store (the artifact cache's case) the fork is pointer-cheap:
// measurements are immutable after ingestion, so the fork shares the
// measurement slice by reference — with its capacity clamped to its length,
// so an Add on the fork always reallocates rather than scribbling into the
// shared backing array — and shares the dedup index as a read-only base
// (the fork's own Adds land in a private overlay). Only the small per-intent
// coverage counters are copied eagerly.
//
// On an unfrozen store the fork is the eager deep copy: the original may
// still ingest and faults.Injector mutates records before Add, so interior
// sharing would not be safe. Insertion order — which fixes All()'s iteration
// order and therefore downstream determinism — is preserved exactly in both
// modes.
func (s *Store) Fork() *Store {
	out := &Store{cov: make(map[probe.Intent]*StreamCoverage, len(s.cov))}
	if s.frozen {
		if raceEnabled && s.fp != s.fingerprint() {
			panic("platform: frozen store's measurements were mutated in place (write through a shared *Measurement)")
		}
		out.ms = s.ms[:len(s.ms):len(s.ms)]
		out.seen = make(map[int]bool)
		if s.frozenSeen == nil {
			// A store built from scratch and frozen: its whole dedup index
			// is immutable now, share it outright.
			out.frozenSeen = s.seen
		} else {
			// A frozen fork-of-a-fork: keep sharing the base, copy the
			// (small) private overlay.
			out.frozenSeen = s.frozenSeen
			for id := range s.seen {
				out.seen[id] = true
			}
		}
	} else {
		out.ms = make([]*probe.Measurement, len(s.ms))
		for i, m := range s.ms {
			out.ms[i] = m.Clone()
		}
		out.seen = make(map[int]bool, len(s.seen)+len(s.frozenSeen))
		for id := range s.seen {
			out.seen[id] = true
		}
		for id := range s.frozenSeen {
			out.seen[id] = true
		}
	}
	for in, c := range s.cov {
		cc := *c
		out.cov[in] = &cc
	}
	return out
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
// path payloads, plus the dedup and coverage indexes (which forks copy even
// when the measurements are shared). It is an estimate, not an accounting —
// the LRU only needs relative magnitudes.
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
	n += int64(len(s.seen)+len(s.frozenSeen)) * perSeenEntry
	n += int64(len(s.cov)) * perCovEntry
	return n
}
