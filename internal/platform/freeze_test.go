package platform

import (
	"strings"
	"testing"
	"unsafe"

	"sisyphus/internal/probe"
)

// seededStore returns a store of n records over one two-hop path: like the
// prober's records, they share the path's hop identities.
func seededStore(t testing.TB, n int) *Store {
	t.Helper()
	s := NewStore()
	path := []probe.Hop{
		{TTL: 1, Addr: "10.14.157.1", ASN: 3741, City: "Johannesburg"},
		{TTL: 2, Addr: "196.60.8.3", ASN: 15169, City: "Johannesburg"},
	}
	for i := 1; i <= n; i++ {
		m := &probe.Measurement{
			ID: i, Intent: probe.IntentBaseline, Hour: float64(i),
			SrcASN: 3741, SrcCity: "Johannesburg", RTTms: 10 + float64(i),
			Hops: []probe.HopRecord{{Hop: &path[0], RTTms: 2}, {Hop: &path[1], RTTms: 9 + float64(i)}},
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

// TestFrozenFingerprintCatchesHopWrites: hop identity is shared by every
// record over a path, so one write through a record's hop corrupts every
// record on that path, in a trunk and in each of its branches. The
// fingerprint covers each hop's identity and RTT, so VerifyFrozen catches
// either write. (No-op without -race.)
func TestFrozenFingerprintCatchesHopWrites(t *testing.T) {
	if !raceEnabled {
		t.Skip("interior fingerprint is only maintained under -race")
	}
	for name, write := range map[string]func(*probe.Measurement){
		"addr": func(m *probe.Measurement) { m.Hops[1].Addr = "10.0.0.1" },
		"city": func(m *probe.Measurement) { m.Hops[1].City = "Durban" },
		"asn":  func(m *probe.Measurement) { m.Hops[0].ASN = 1 },
		"ttl":  func(m *probe.Measurement) { m.Hops[0].TTL = 9 },
		"rtt":  func(m *probe.Measurement) { m.Hops[1].RTTms = -1 },
	} {
		t.Run(name, func(t *testing.T) {
			s := seededStore(t, 4)
			s.Freeze()
			s.VerifyFrozen() // untouched: must not panic

			write(s.ms[2]) // the illegal write the contract forbids
			defer func() {
				if recover() == nil {
					t.Fatal("VerifyFrozen after a write through a hop did not panic")
				}
			}()
			s.VerifyFrozen()
		})
	}
}

// TestSizeConstantsMatchLayout holds SizeBytes's per-record costs to the
// record layout, so a change to either shows up here.
func TestSizeConstantsMatchLayout(t *testing.T) {
	if want := unsafe.Sizeof(probe.Measurement{}) + unsafe.Sizeof((*probe.Measurement)(nil)); perMeasurement != want {
		t.Errorf("perMeasurement = %d, want %d (a Measurement and its slot in the store)", perMeasurement, want)
	}
	if want := unsafe.Sizeof(probe.HopRecord{}); perHop != want {
		t.Errorf("perHop = %d, want %d (a HopRecord)", perHop, want)
	}
}

// TestSizeBytesCountsIndexes: the residency estimate must include the dedup
// and coverage indexes — the LRU bound undercounted them before.
func TestSizeBytesCountsIndexes(t *testing.T) {
	s := seededStore(t, 10)
	bare := int64(0)
	for _, m := range s.ms {
		bare += perMeasurement + int64(len(m.Hops))*perHop + int64(len(m.ASPath))*4
	}
	if got := s.SizeBytes(); got <= bare {
		t.Fatalf("SizeBytes() = %d, want > %d (measurements alone): indexes uncounted", got, bare)
	}
}
