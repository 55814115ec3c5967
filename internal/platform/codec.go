package platform

import (
	"fmt"
	"math"

	"sisyphus/internal/probe"
)

// ExportMeasurements returns the stored measurements in ingestion order —
// the serialized form of a store. The slice and its records are shared with
// the store; callers must treat them as read-only (the artifact disk tier
// only ever encodes them).
func (s *Store) ExportMeasurements() []*probe.Measurement { return s.ms }

// ImportStore rebuilds a store by replaying the measurements through Add in
// order, which reconstructs the dedup index and per-intent coverage counters
// exactly as the original ingestion did. Every record is validated first
// (non-finite floats rejected) and duplicate IDs surface as Add errors, so a
// corrupted payload cannot poison downstream arithmetic or panic. The result
// is unfrozen, exactly like a freshly simulated campaign's store.
func ImportStore(ms []*probe.Measurement) (*Store, error) {
	s := NewStore()
	for i, m := range ms {
		if m == nil {
			return nil, fmt.Errorf("platform: import: nil measurement at index %d", i)
		}
		if err := validateMeasurement(m); err != nil {
			return nil, fmt.Errorf("platform: import: record %d: %w", i, err)
		}
	}
	if err := s.Add(ms...); err != nil {
		return nil, fmt.Errorf("platform: import: %w", err)
	}
	return s, nil
}

// validateMeasurement rejects records whose numeric fields are not finite.
// JSON itself has no NaN/Inf literal, but a decoder swap or a hand-edited
// file can still smuggle them in; estimator math silently propagates them.
func validateMeasurement(m *probe.Measurement) error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"Hour", m.Hour},
		{"RTTms", m.RTTms},
		{"ThroughputMbps", m.ThroughputMbps},
		{"LossRate", m.LossRate},
		{"TrueRTTms", m.TrueRTTms},
		{"TrueMaxUtil", m.TrueMaxUtil},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("field %s is not finite (%v)", f.name, f.v)
		}
	}
	for i, h := range m.Hops {
		if math.IsNaN(h.RTTms) || math.IsInf(h.RTTms, 0) {
			return fmt.Errorf("hop %d RTTms is not finite (%v)", i, h.RTTms)
		}
	}
	return nil
}
