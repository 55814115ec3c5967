package faults

import (
	"context"
	"testing"

	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/probe"
)

// probedRecords returns n completed speed tests from one South Africa
// vantage, one per engine step, and the world's topology.
func probedRecords(t *testing.T, n int) (*topo.Topology, []*probe.Measurement) {
	t.Helper()
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(s.Topo, 5, engine.Config{})
	p := probe.NewProber(e, 6)
	src, err := s.Topo.FindPoP(328745, "Johannesburg")
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*probe.Measurement, 0, n)
	for range n {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		m, err := p.SpeedTest(src, scenario.BigContent, probe.IntentUserInitiated, "user")
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return s.Topo, ms
}

// TestFaultRateZeroProbeBitIdentity is the fault model's core contract: a
// configuration whose every rate is zero hands back the clean records
// themselves, whatever the retry policy.
func TestFaultRateZeroProbeBitIdentity(t *testing.T) {
	tp, clean := probedRecords(t, 25)
	got, err := Apply(context.Background(), Config{Seed: 12345}, RetryPolicy{MaxAttempts: 3}, tp, 25, clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) || &got[0] != &clean[0] {
		t.Fatal("zero-rate Apply did not return the clean records unchanged")
	}
}

// TestApplyRetriesUntilSuccess: a probe survives at the first attempt the
// drop stream lets through, and its record is the clean one (a copy) with
// that attempt count.
func TestApplyRetriesUntilSuccess(t *testing.T) {
	tp, clean := probedRecords(t, 60)
	cfg, retry := Config{Seed: 21, DropRate: 0.6}, RetryPolicy{MaxAttempts: 3}
	rec := obs.NewRecorder()
	got, err := Apply(obs.With(context.Background(), rec), cfg, retry, tp, 60, clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) {
		t.Fatalf("Apply returned %d records from %d", len(got), len(clean))
	}
	decide := newInjector(context.Background(), cfg)
	src, _ := tp.FindPoP(328745, "Johannesburg")
	retried := 0
	for i, m := range got {
		c := clean[i]
		want := 0
		for a := 1; a <= retry.MaxAttempts && want == 0; a++ {
			if !decide.attemptFails(src, c.Hour, c.ID, a) {
				want = a
			}
		}
		if want == 0 {
			if !m.Failed || int(m.Attempts) != retry.MaxAttempts {
				t.Fatalf("record %d: every attempt dropped, got Failed=%v Attempts=%d", c.ID, m.Failed, m.Attempts)
			}
			continue
		}
		if m == c {
			t.Fatalf("record %d: surviving record aliases the clean one", c.ID)
		}
		if m.Failed || int(m.Attempts) != want {
			t.Fatalf("record %d: Failed=%v Attempts=%d, want a live record after %d attempts", c.ID, m.Failed, m.Attempts, want)
		}
		if m.ID != c.ID || m.RTTms != c.RTTms || m.ThroughputMbps != c.ThroughputMbps || len(m.Hops) != len(c.Hops) {
			t.Fatalf("record %d: drops changed the measurement: %+v vs %+v", c.ID, m, c)
		}
		if want > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatalf("no probe needed a retry at DropRate %v", cfg.DropRate)
	}
	if drops := rec.Metrics()[""]["faults.drops"]; drops == 0 {
		t.Fatal("drops fired but faults.drops was not counted")
	}
}

// TestApplyExhaustedRetriesYieldFailedRecord: when every attempt fails the
// record becomes an explicit Failed marker under the clean record's ID,
// keeping its identity fields and none of its performance data.
func TestApplyExhaustedRetriesYieldFailedRecord(t *testing.T) {
	tp, clean := probedRecords(t, 10)
	got, err := Apply(context.Background(), Config{Seed: 2, DropRate: 1}, RetryPolicy{MaxAttempts: 2}, tp, 10, clean)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		c := clean[i]
		if !m.Failed {
			t.Fatal("want explicit Failed marker, not silent absence")
		}
		if m.Attempts != 2 {
			t.Fatalf("Attempts = %d, want 2", m.Attempts)
		}
		if m.ID != c.ID || m.Hour != c.Hour {
			t.Fatalf("failed record %d/%v does not stand in for clean record %d/%v", m.ID, m.Hour, c.ID, c.Hour)
		}
		if m.Intent != probe.IntentUserInitiated || m.Trigger != "user" {
			t.Fatalf("failed record lost its intent context: %v/%v", m.Intent, m.Trigger)
		}
		if m.SrcASN == 0 || m.DstASN == 0 || m.SrcCity != c.SrcCity || m.DstCity != c.DstCity || m.Family != c.Family {
			t.Fatal("failed record must keep its identity fields")
		}
		if m.RTTms != 0 || m.ThroughputMbps != 0 || len(m.Hops) != 0 || len(m.ASPath) != 0 {
			t.Fatal("failed record must not carry performance data")
		}
		if c.Failed || c.RTTms == 0 {
			t.Fatal("Apply wrote the clean record")
		}
	}
}

// TestApplyRefusesRecordsPastTheHorizon: a record later than the campaign's
// last step cannot be delivered by any step, so Apply says so.
func TestApplyRefusesRecordsPastTheHorizon(t *testing.T) {
	tp, clean := probedRecords(t, 10)
	if _, err := Apply(context.Background(), Config{Seed: 1, ReorderRate: 0.5}, RetryPolicy{}, tp, 5, clean); err == nil {
		t.Fatal("records past the horizon accepted")
	}
}

// TestStreamsDeterministicAcrossInstances: equal configs make equal
// decisions; the streams live in the config, not the instance.
func TestStreamsDeterministicAcrossInstances(t *testing.T) {
	cfg := Config{Seed: 9, DropRate: 0.3, OutagesPerKiloHour: 5, OutageMeanHours: 12}
	a, b := newInjector(context.Background(), cfg), newInjector(context.Background(), cfg)
	src := topo.PoPID(17)
	for seq := 0; seq < 200; seq++ {
		hour := float64(seq) * 3.5
		for attempt := 1; attempt <= 3; attempt++ {
			if a.attemptFails(src, hour, seq, attempt) != b.attemptFails(src, hour, seq, attempt) {
				t.Fatalf("seq %d attempt %d: equal configs disagreed", seq, attempt)
			}
		}
	}
	// A different seed must not reproduce the same decision sequence.
	c := newInjector(context.Background(), Config{Seed: 10, DropRate: 0.3})
	same := true
	for seq := 0; seq < 200; seq++ {
		if a.attemptFails(src, 0, seq, 1) != c.attemptFails(src, 0, seq, 1) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop streams")
	}
}

// TestDropDecisionsIndependentOfCallOrder: pre-split streams mean the answer
// for ⟨seq, attempt⟩ is fixed before any call happens — querying in reverse
// order gives the same answers.
func TestDropDecisionsIndependentOfCallOrder(t *testing.T) {
	cfg := Config{Seed: 4, DropRate: 0.4}
	forward := newInjector(context.Background(), cfg)
	backward := newInjector(context.Background(), cfg)
	src := topo.PoPID(1)
	const n = 100
	var fw [n]bool
	for seq := 0; seq < n; seq++ {
		fw[seq] = forward.attemptFails(src, 0, seq, 1)
	}
	for seq := n - 1; seq >= 0; seq-- {
		if backward.attemptFails(src, 0, seq, 1) != fw[seq] {
			t.Fatalf("seq %d: decision depends on call order", seq)
		}
	}
}

func TestOutageWindows(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		horizon float64
	}{
		{"sparse short", Config{Seed: 1, OutagesPerKiloHour: 2, OutageMeanHours: 6}, 5000},
		{"dense long", Config{Seed: 2, OutagesPerKiloHour: 20, OutageMeanHours: 48}, 2000},
		{"default duration", Config{Seed: 3, OutagesPerKiloHour: 10}, 3000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := newInjector(context.Background(), c.cfg)
			src := topo.PoPID(5)
			ws := in.outageWindows(src, c.horizon)
			if len(ws) == 0 {
				t.Fatalf("no outage windows in %v hours at %v/kh", c.horizon, c.cfg.OutagesPerKiloHour)
			}
			prevEnd := 0.0
			for i, w := range ws {
				if w.End <= w.Start {
					t.Fatalf("window %d degenerate: %+v", i, w)
				}
				if w.Start < prevEnd {
					t.Fatalf("window %d overlaps predecessor: %+v after end %v", i, w, prevEnd)
				}
				prevEnd = w.End
			}
			// Membership: VantageDown agrees with the materialized windows at
			// interior points, boundaries, and gaps ([Start, End) semantics).
			w := ws[0]
			mid := (w.Start + w.End) / 2
			checks := []struct {
				hour string
				at   float64
				down bool
			}{
				{"before first window", w.Start / 2, false},
				{"window start", w.Start, true},
				{"window interior", mid, true},
				{"window end (exclusive)", w.End, false},
			}
			for _, chk := range checks {
				if got := in.vantageDown(src, chk.at); got != chk.down {
					t.Fatalf("%s (hour %v): VantageDown = %v, want %v", chk.hour, chk.at, got, chk.down)
				}
			}
		})
	}
}

// TestOutageScheduleQueryOrderInvariance: membership must not depend on the
// order of prior queries, since probers ask for scattered hours.
func TestOutageScheduleQueryOrderInvariance(t *testing.T) {
	cfg := Config{Seed: 6, OutagesPerKiloHour: 8, OutageMeanHours: 24}
	src := topo.PoPID(3)
	hours := []float64{900, 10, 450, 2000, 0, 1999.5, 33.3}

	eager := newInjector(context.Background(), cfg)
	eager.outageWindows(src, 2500)                 // materialize everything first
	lazy := newInjector(context.Background(), cfg) // extends incrementally, out of order
	for _, h := range hours {
		if eager.vantageDown(src, h) != lazy.vantageDown(src, h) {
			t.Fatalf("hour %v: lazy and eager schedules disagree", h)
		}
	}
	// Two vantages get independent schedules from their own streams.
	other := topo.PoPID(4)
	allSame := true
	for _, w := range eager.outageWindows(src, 2500) {
		if eager.vantageDown(other, (w.Start+w.End)/2) != true {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("two vantages share an outage schedule")
	}
}

func TestVantageDownDisabledWithoutOutages(t *testing.T) {
	in := newInjector(context.Background(), Config{Seed: 1, DropRate: 0.9})
	if in.vantageDown(topo.PoPID(1), 100) {
		t.Fatal("outages fired with OutagesPerKiloHour = 0")
	}
	if ws := in.outageWindows(topo.PoPID(1), 1000); ws != nil {
		t.Fatalf("windows materialized while disabled: %v", ws)
	}
}

func TestTruncateMutation(t *testing.T) {
	in := newInjector(context.Background(), Config{Seed: 2, TruncateRate: 1})
	for seq := 0; seq < 50; seq++ {
		m := &probe.Measurement{Hops: make([]probe.HopRecord, 8)}
		in.mutate(m, seq)
		if !m.Truncated {
			t.Fatalf("seq %d: TruncateRate 1 did not truncate", seq)
		}
		if len(m.Hops) < 1 || len(m.Hops) >= 8 {
			t.Fatalf("seq %d: kept %d of 8 hops; want 1..7", seq, len(m.Hops))
		}
	}
	// A single-hop trace can't lose its tail; it must pass untouched.
	one := &probe.Measurement{Hops: make([]probe.HopRecord, 1)}
	in.mutate(one, 0)
	if one.Truncated || len(one.Hops) != 1 {
		t.Fatalf("single-hop trace mutated: %+v", one)
	}
}

func TestTimestampSkewClampsAtZero(t *testing.T) {
	in := newInjector(context.Background(), Config{Seed: 3, TimestampSkewStdHours: 50})
	sawShift := false
	for seq := 0; seq < 100; seq++ {
		m := &probe.Measurement{Hour: 1}
		in.mutate(m, seq)
		if m.Hour < 0 {
			t.Fatalf("seq %d: skew produced negative hour %v", seq, m.Hour)
		}
		if m.Hour != 1 {
			sawShift = true
		}
	}
	if !sawShift {
		t.Fatal("skew std 50h never moved a timestamp")
	}
}

func TestDeliverPassThroughWhenDisabled(t *testing.T) {
	in := newInjector(context.Background(), Config{Seed: 1, DropRate: 0.5}) // dup/reorder both zero
	ms := []*probe.Measurement{{ID: 1}, {ID: 2}}
	out := in.deliver(ms...)
	if len(out) != 2 || out[0] != ms[0] || out[1] != ms[1] {
		t.Fatalf("disabled Deliver did not pass records through untouched: %v", out)
	}
	if got := in.flush(); len(got) != 0 {
		t.Fatalf("disabled Deliver held records: %v", got)
	}
}

func TestDeliverDuplicates(t *testing.T) {
	in := newInjector(context.Background(), Config{Seed: 7, DuplicateRate: 1})
	ms := []*probe.Measurement{{ID: 10}, {ID: 11}}
	out := in.deliver(ms...)
	if len(out) != 4 {
		t.Fatalf("DuplicateRate 1 delivered %d records from 2", len(out))
	}
	seen := map[int]bool{}
	for i, m := range out {
		if seen[m.ID] {
			t.Fatalf("record %d reuses ID %d", i, m.ID)
		}
		seen[m.ID] = true
	}
	for _, i := range []int{1, 3} {
		dup := out[i]
		if dup.DuplicateOf != out[i-1].ID {
			t.Fatalf("clone at %d has DuplicateOf %d, want %d", i, dup.DuplicateOf, out[i-1].ID)
		}
		if dup.ID < dupIDBase {
			t.Fatalf("clone ID %d inside the prober ID space", dup.ID)
		}
	}
	// Clones are copies: mutating one must not touch the original.
	out[1].Hour = 99
	if out[0].Hour == 99 {
		t.Fatal("duplicate aliases the original record")
	}
}

func TestDeliverReorderAndFlush(t *testing.T) {
	in := newInjector(context.Background(), Config{Seed: 8, ReorderRate: 1})
	first := in.deliver(&probe.Measurement{ID: 1}, &probe.Measurement{ID: 2})
	if len(first) != 0 {
		t.Fatalf("ReorderRate 1 should hold the whole first batch, delivered %v", first)
	}
	second := in.deliver(&probe.Measurement{ID: 3})
	// Batch 2 is also held; batch 1's held records land after it — here that
	// means batch 1 arrives alone, strictly after its own scheduling round.
	if len(second) != 2 || second[0].ID != 1 || second[1].ID != 2 {
		ids := []int{}
		for _, m := range second {
			ids = append(ids, m.ID)
		}
		t.Fatalf("second batch delivered IDs %v, want held [1 2]", ids)
	}
	tail := in.flush()
	if len(tail) != 1 || tail[0].ID != 3 {
		t.Fatalf("Flush returned %v, want the held record 3", tail)
	}
	if again := in.flush(); len(again) != 0 {
		t.Fatalf("second Flush returned %v", again)
	}
}

func TestScaledGrid(t *testing.T) {
	if got := Scaled(5, 0); got != (Config{Seed: 5}) {
		t.Fatalf("Scaled(_, 0) = %+v, want bare seed", got)
	}
	if Scaled(5, 0).Enabled() {
		t.Fatal("intensity 0 must disable every fault")
	}
	half := Scaled(5, 0.5)
	full := Scaled(5, 1)
	if !half.Enabled() || !full.Enabled() {
		t.Fatal("positive intensity produced a disabled config")
	}
	if half.DropRate >= full.DropRate || half.OutagesPerKiloHour >= full.OutagesPerKiloHour {
		t.Fatal("fault rates must grow with intensity")
	}
	if over := Scaled(5, 3); over != full {
		t.Fatalf("intensity must clamp at 1: %+v vs %+v", over, full)
	}
}

// outageWindows materializes the vantage's outage windows up to horizon, so
// tests can check VantageDown against the schedule it consults.
func (in *injector) outageWindows(src topo.PoPID, horizon float64) []window {
	if in.cfg.OutagesPerKiloHour <= 0 {
		return nil
	}
	sc := in.schedule(src)
	in.extend(sc, horizon)
	var out []window
	for _, w := range sc.windows {
		if w.Start < horizon {
			out = append(out, w)
		}
	}
	return out
}
