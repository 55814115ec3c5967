package platform

import (
	"strings"
	"testing"

	"sisyphus/internal/probe"
)

func seededStore(t testing.TB, n int) *Store {
	t.Helper()
	s := NewStore()
	for i := 1; i <= n; i++ {
		m := &probe.Measurement{
			ID: i, Intent: probe.IntentBaseline, Hour: float64(i),
			SrcASN: 3741, SrcCity: "Johannesburg", RTTms: 10 + float64(i),
			Hops: []probe.HopRecord{{}, {}},
		}
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestAddOnFrozenStoreFails: the stored original is read-only.
func TestAddOnFrozenStoreFails(t *testing.T) {
	s := seededStore(t, 1)
	s.Freeze()
	err := s.Add(&probe.Measurement{ID: 42})
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("Add on frozen store: err = %v, want frozen error", err)
	}
	if s.Len() != 1 {
		t.Fatalf("failed Add still appended: len = %d", s.Len())
	}
}

// TestFrozenFingerprintCatchesInteriorWrites: under the race detector the
// store fingerprints measurement interiors at Freeze and VerifyFrozen
// re-checks them (the campaign fetch calls it on every hit), so a write
// through a shared pointer fails loudly instead of corrupting every reader.
// (No-op without -race.)
func TestFrozenFingerprintCatchesInteriorWrites(t *testing.T) {
	if !raceEnabled {
		t.Skip("interior fingerprint is only maintained under -race")
	}
	s := seededStore(t, 4)
	s.Freeze()
	s.VerifyFrozen() // untouched: must not panic

	s.ms[2].RTTms = -999 // the illegal write the contract forbids
	defer func() {
		if recover() == nil {
			t.Fatal("VerifyFrozen after an interior write did not panic")
		}
	}()
	s.VerifyFrozen()
}

// TestSizeBytesCountsIndexes: the residency estimate must include the dedup
// and coverage indexes — the LRU bound undercounted them before.
func TestSizeBytesCountsIndexes(t *testing.T) {
	s := seededStore(t, 10)
	bare := int64(0)
	for _, m := range s.ms {
		bare += 240 + int64(len(m.Hops))*48 + int64(len(m.ASPath))*4
	}
	if got := s.SizeBytes(); got <= bare {
		t.Fatalf("SizeBytes() = %d, want > %d (measurements alone): indexes uncounted", got, bare)
	}
}
