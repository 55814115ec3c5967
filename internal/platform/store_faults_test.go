package platform

import (
	"strings"
	"testing"

	"sisyphus/internal/probe"
)

func TestStoreRejectsDuplicateIDs(t *testing.T) {
	s := NewStore()
	if err := s.Add(&probe.Measurement{ID: 1, Intent: probe.IntentBaseline},
		&probe.Measurement{ID: 2, Intent: probe.IntentBaseline}); err != nil {
		t.Fatal(err)
	}
	err := s.Add(&probe.Measurement{ID: 1, Intent: probe.IntentBaseline, Hour: 7})
	if err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if !strings.Contains(err.Error(), "duplicate measurement ID 1") {
		t.Fatalf("error does not identify the offender: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("store grew past the rejection: len = %d", s.Len())
	}
}

func TestStoreAcceptsInjectedDuplicatesWithDistinctIDs(t *testing.T) {
	// A fault-injected duplicate delivery is a distinct record (fresh ID,
	// DuplicateOf set) — the store must take it and count it.
	s := NewStore()
	orig := &probe.Measurement{ID: 5, Intent: probe.IntentBaseline}
	clone := &probe.Measurement{ID: 1 << 30, Intent: probe.IntentBaseline, DuplicateOf: 5}
	if err := s.Add(orig, clone); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalCoverage().Duplicated; got != 1 {
		t.Fatalf("Duplicated = %d, want 1", got)
	}
}

func TestStoreCoverageCounters(t *testing.T) {
	s := NewStore()
	err := s.Add(
		&probe.Measurement{ID: 1, Intent: probe.IntentBaseline},
		&probe.Measurement{ID: 2, Intent: probe.IntentBaseline, Failed: true, Attempts: 2},
		&probe.Measurement{ID: 3, Intent: probe.IntentBaseline, Truncated: true},
		&probe.Measurement{ID: 4, Intent: probe.IntentUserInitiated},
	)
	if err != nil {
		t.Fatal(err)
	}
	base := *s.cov[probe.IntentBaseline]
	if base.Scheduled != 3 || base.Delivered != 2 || base.Failed != 1 || base.Truncated != 1 {
		t.Fatalf("baseline coverage = %+v", base)
	}
	if base.Scheduled != base.Delivered+base.Failed {
		t.Fatalf("scheduled != delivered + failed: %+v", base)
	}
	if got := base.Fraction(); got != 2.0/3 {
		t.Fatalf("Fraction = %v", got)
	}
	total := s.TotalCoverage()
	if total.Scheduled != 4 || total.Delivered != 3 {
		t.Fatalf("total coverage = %+v", total)
	}
	if got := (StreamCoverage{}).Fraction(); got != 1 {
		t.Fatalf("empty stream Fraction = %v, want 1", got)
	}
}

func TestDeliveredAndFrameExcludeFailedRecords(t *testing.T) {
	s := NewStore()
	if err := s.Add(
		&probe.Measurement{ID: 1, Intent: probe.IntentBaseline, RTTms: 10},
		&probe.Measurement{ID: 2, Intent: probe.IntentBaseline, Failed: true},
		&probe.Measurement{ID: 3, Intent: probe.IntentBaseline, RTTms: 12},
	); err != nil {
		t.Fatal(err)
	}
	f := Frame(s.All())
	if got := f.Len(); got != 2 {
		t.Fatalf("Frame kept %d rows, want 2 (Failed rows are tagged gaps)", got)
	}
}

func TestMedianRTTSeriesSkipsFailedRecords(t *testing.T) {
	u := Unit{ASN: 100, City: "X"}
	ms := []*probe.Measurement{
		{ID: 1, SrcASN: 100, SrcCity: "X", Hour: 0.5, RTTms: 10},
		{ID: 2, SrcASN: 100, SrcCity: "X", Hour: 1.5, Failed: true}, // gap, not a 0ms sample
		{ID: 3, SrcASN: 100, SrcCity: "X", Hour: 2.5, RTTms: 14},
	}
	series, empty := MedianRTTSeries(ms, u, 0, 3, 1)
	if len(series) != 3 {
		t.Fatalf("series length = %d", len(series))
	}
	if len(empty) != 1 || empty[0] != 1 {
		t.Fatalf("emptyBins = %v, want [1] (the failed probe's bin)", empty)
	}
	if series[1] != 12 {
		t.Fatalf("failed-probe bin = %v, want interpolated 12", series[1])
	}
}
