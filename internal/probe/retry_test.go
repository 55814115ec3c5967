package probe

import (
	"testing"

	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
)

// scriptedHook fails the first N attempts of every probe.
type scriptedHook struct {
	failFirst int
	calls     int
	mutations int
}

func (h *scriptedHook) AttemptFails(src topo.PoPID, hour float64, seq, attempt int) bool {
	h.calls++
	return attempt <= h.failFirst
}

func (h *scriptedHook) MutateMeasurement(m *Measurement, seq int) { h.mutations++ }

func TestProberRetriesUntilSuccess(t *testing.T) {
	s, e, p := testWorld(t)
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	src, _ := s.Topo.FindPoP(3741, "East London")
	rib, _ := e.RIB()
	target, err := rib.NearestPoP(src, scenario.BigContent)
	if err != nil {
		t.Fatal(err)
	}

	hook := &scriptedHook{failFirst: 2}
	p.Hook = hook
	p.Retry = RetryPolicy{MaxAttempts: 3}
	m, err := p.Traceroute(src, target, IntentBaseline, "test")
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed {
		t.Fatal("third attempt should have succeeded")
	}
	if m.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", m.Attempts)
	}
	if hook.calls != 3 {
		t.Fatalf("hook consulted %d times, want 3", hook.calls)
	}
	if hook.mutations != 1 {
		t.Fatalf("mutation hook ran %d times, want 1", hook.mutations)
	}
}

func TestProberExhaustedRetriesYieldFailedRecord(t *testing.T) {
	s, e, p := testWorld(t)
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	src, _ := s.Topo.FindPoP(3741, "East London")
	rib, _ := e.RIB()
	target, err := rib.NearestPoP(src, scenario.BigContent)
	if err != nil {
		t.Fatal(err)
	}

	p.Hook = &scriptedHook{failFirst: 99}
	p.Retry = RetryPolicy{MaxAttempts: 2}
	m, err := p.Traceroute(src, target, IntentUserInitiated, "user")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Failed {
		t.Fatal("want explicit Failed marker, not silent absence")
	}
	if m.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", m.Attempts)
	}
	if m.ID == 0 {
		t.Fatal("failed record must still get an ID")
	}
	if m.Intent != IntentUserInitiated || m.Trigger != "user" {
		t.Fatalf("failed record lost its intent context: %v/%v", m.Intent, m.Trigger)
	}
	if m.SrcASN == 0 || m.DstASN == 0 {
		t.Fatal("failed record must keep its identity fields")
	}
	if m.RTTms != 0 || m.ThroughputMbps != 0 || len(m.Hops) != 0 {
		t.Fatal("failed record must not carry performance data")
	}
}
