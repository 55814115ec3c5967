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

// TestFrozenForkSharesMeasurements pins the copy-on-write contract: a fork
// of a frozen store shares the measurement slice by reference, gets private
// index copies, and an Add on the fork reallocates instead of writing into
// the shared backing array.
func TestFrozenForkSharesMeasurements(t *testing.T) {
	s := seededStore(t, 8)
	s.Freeze()
	if !s.frozen {
		t.Fatal("Freeze did not stick")
	}

	a := s.Fork()
	b := s.Fork()
	if &a.ms[0] != &s.ms[0] {
		t.Fatal("frozen fork copied the measurement slice")
	}
	if a.ms[0] != s.ms[0] {
		t.Fatal("frozen fork cloned measurement interiors")
	}
	if cap(a.ms) != len(a.ms) {
		t.Fatalf("fork's slice cap %d not clamped to len %d; append could scribble on the original", cap(a.ms), len(a.ms))
	}

	// Extending fork a must not disturb the original or sibling b.
	if err := a.Add(&probe.Measurement{ID: 100, Intent: probe.IntentUserInitiated, Hour: 99}); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 9 || s.Len() != 8 || b.Len() != 8 {
		t.Fatalf("lengths after fork Add: a=%d s=%d b=%d, want 9/8/8", a.Len(), s.Len(), b.Len())
	}
	if s.seen[100] || b.seen[100] {
		t.Fatal("fork's dedup index write leaked")
	}
	if c := s.cov[probe.IntentUserInitiated]; c != nil && c.Scheduled != 0 {
		t.Fatal("fork's coverage write leaked into the original")
	}
	// And the fork re-accepts dedup duty: the shared IDs are still seen.
	if err := a.Add(&probe.Measurement{ID: 1}); err == nil {
		t.Fatal("fork lost the dedup index for shared measurements")
	}
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

// TestMutableForkStaysDeep pins the pre-freeze behaviour: forks of a live
// store clone every measurement, so fault injectors mutating records before
// a later Add cannot leak into earlier forks.
func TestMutableForkStaysDeep(t *testing.T) {
	s := seededStore(t, 3)
	f := s.Fork()
	if f.ms[0] == s.ms[0] {
		t.Fatal("mutable fork shares measurement interiors")
	}
	s.ms[0].RTTms = -1
	if f.ms[0].RTTms == -1 {
		t.Fatal("original's interior write leaked into a deep fork")
	}
}

// TestFrozenForkAllocations pins the pointer-cheap property: forking a
// frozen store allocates O(indexes), not O(measurements).
func TestFrozenForkAllocations(t *testing.T) {
	small := seededStore(t, 4)
	small.Freeze()
	big := seededStore(t, 400)
	big.Freeze()
	smallAllocs := testing.AllocsPerRun(50, func() { _ = small.Fork() })
	bigAllocs := testing.AllocsPerRun(50, func() { _ = big.Fork() })
	// Measurements are shared and the dedup base is shared: 100x the
	// records must not change the fork's allocation count at all.
	if bigAllocs > smallAllocs {
		t.Fatalf("frozen Fork allocations scale with measurements: %v for 400 records vs %v for 4", bigAllocs, smallAllocs)
	}
	if smallAllocs > 8 {
		t.Fatalf("frozen Fork allocates %v objects, want a handful (struct + empty overlay + coverage)", smallAllocs)
	}
}

// TestFrozenFingerprintCatchesInteriorWrites: under the race detector the
// store fingerprints measurement interiors at Freeze and re-verifies on
// Fork, so a write through a shared pointer fails loudly instead of
// corrupting every fork. (No-op without -race.)
func TestFrozenFingerprintCatchesInteriorWrites(t *testing.T) {
	if !raceEnabled {
		t.Skip("interior fingerprint is only maintained under -race")
	}
	s := seededStore(t, 4)
	s.Freeze()
	s.ms[2].RTTms = -999 // the illegal write the contract forbids
	defer func() {
		if recover() == nil {
			t.Fatal("Fork after an interior write did not panic")
		}
	}()
	s.Fork()
}

// TestSizeBytesCountsIndexes: the residency estimate must include the dedup
// and coverage indexes forks copy — the LRU bound undercounted them before.
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
