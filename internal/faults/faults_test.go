package faults

import (
	"reflect"
	"testing"

	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/probe"
)

func testProber(t *testing.T) (*scenario.World, *probe.Prober) {
	t.Helper()
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(s.Topo, 5, engine.Config{})
	return s, probe.NewProber(e, 6)
}

// TestFaultRateZeroProbeBitIdentity is the injector's core contract: an
// injector whose every rate is zero must be indistinguishable — field for
// field — from running with no injector installed. Consulting the hook must
// never advance the prober's own noise RNG.
func TestFaultRateZeroProbeBitIdentity(t *testing.T) {
	sA, pA := testProber(t) // no hook
	sB, pB := testProber(t) // zero-rate injector
	pB.Hook = New(Config{Seed: 12345})
	pB.Retry = probe.RetryPolicy{MaxAttempts: 3}

	srcA, _ := sA.Topo.FindPoP(328745, "Johannesburg")
	srcB, _ := sB.Topo.FindPoP(328745, "Johannesburg")
	for i := 0; i < 25; i++ {
		a, err := pA.SpeedTest(srcA, scenario.BigContent, probe.IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		b, err := pB.SpeedTest(srcB, scenario.BigContent, probe.IntentBaseline, "t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("probe %d diverged under zero-rate injector:\n  none: %+v\n  zero: %+v", i, a, b)
		}
	}
}

// TestStreamsDeterministicAcrossInstances: equal configs make equal
// decisions; the streams live in the config, not the instance.
func TestStreamsDeterministicAcrossInstances(t *testing.T) {
	cfg := Config{Seed: 9, DropRate: 0.3, OutagesPerKiloHour: 5, OutageMeanHours: 12}
	a, b := New(cfg), New(cfg)
	src := topo.PoPID(17)
	for seq := 0; seq < 200; seq++ {
		hour := float64(seq) * 3.5
		for attempt := 1; attempt <= 3; attempt++ {
			if a.AttemptFails(src, hour, seq, attempt) != b.AttemptFails(src, hour, seq, attempt) {
				t.Fatalf("seq %d attempt %d: equal configs disagreed", seq, attempt)
			}
		}
	}
	// A different seed must not reproduce the same decision sequence.
	c := New(Config{Seed: 10, DropRate: 0.3})
	same := true
	for seq := 0; seq < 200; seq++ {
		if a.AttemptFails(src, 0, seq, 1) != c.AttemptFails(src, 0, seq, 1) {
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
	forward := New(cfg)
	backward := New(cfg)
	src := topo.PoPID(1)
	const n = 100
	var fw [n]bool
	for seq := 0; seq < n; seq++ {
		fw[seq] = forward.AttemptFails(src, 0, seq, 1)
	}
	for seq := n - 1; seq >= 0; seq-- {
		if backward.AttemptFails(src, 0, seq, 1) != fw[seq] {
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
			in := New(c.cfg)
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
				if got := in.VantageDown(src, chk.at); got != chk.down {
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

	eager := New(cfg)
	eager.outageWindows(src, 2500) // materialize everything first
	lazy := New(cfg)               // extends incrementally, out of order
	for _, h := range hours {
		if eager.VantageDown(src, h) != lazy.VantageDown(src, h) {
			t.Fatalf("hour %v: lazy and eager schedules disagree", h)
		}
	}
	// Two vantages get independent schedules from their own streams.
	other := topo.PoPID(4)
	allSame := true
	for _, w := range eager.outageWindows(src, 2500) {
		if eager.VantageDown(other, (w.Start+w.End)/2) != true {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("two vantages share an outage schedule")
	}
}

func TestVantageDownDisabledWithoutOutages(t *testing.T) {
	in := New(Config{Seed: 1, DropRate: 0.9})
	if in.VantageDown(topo.PoPID(1), 100) {
		t.Fatal("outages fired with OutagesPerKiloHour = 0")
	}
	if ws := in.outageWindows(topo.PoPID(1), 1000); ws != nil {
		t.Fatalf("windows materialized while disabled: %v", ws)
	}
}

func TestTruncateMutation(t *testing.T) {
	in := New(Config{Seed: 2, TruncateRate: 1})
	for seq := 0; seq < 50; seq++ {
		m := &probe.Measurement{Hops: make([]probe.HopRecord, 8)}
		in.MutateMeasurement(m, seq)
		if !m.Truncated {
			t.Fatalf("seq %d: TruncateRate 1 did not truncate", seq)
		}
		if len(m.Hops) < 1 || len(m.Hops) >= 8 {
			t.Fatalf("seq %d: kept %d of 8 hops; want 1..7", seq, len(m.Hops))
		}
	}
	// A single-hop trace can't lose its tail; it must pass untouched.
	one := &probe.Measurement{Hops: make([]probe.HopRecord, 1)}
	in.MutateMeasurement(one, 0)
	if one.Truncated || len(one.Hops) != 1 {
		t.Fatalf("single-hop trace mutated: %+v", one)
	}
}

func TestTimestampSkewClampsAtZero(t *testing.T) {
	in := New(Config{Seed: 3, TimestampSkewStdHours: 50})
	sawShift := false
	for seq := 0; seq < 100; seq++ {
		m := &probe.Measurement{Hour: 1}
		in.MutateMeasurement(m, seq)
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
	in := New(Config{Seed: 1, DropRate: 0.5}) // dup/reorder both zero
	ms := []*probe.Measurement{{ID: 1}, {ID: 2}}
	out := in.Deliver(ms...)
	if len(out) != 2 || out[0] != ms[0] || out[1] != ms[1] {
		t.Fatalf("disabled Deliver did not pass records through untouched: %v", out)
	}
	if got := in.Flush(); len(got) != 0 {
		t.Fatalf("disabled Deliver held records: %v", got)
	}
}

func TestDeliverDuplicates(t *testing.T) {
	in := New(Config{Seed: 7, DuplicateRate: 1})
	ms := []*probe.Measurement{{ID: 10}, {ID: 11}}
	out := in.Deliver(ms...)
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
	in := New(Config{Seed: 8, ReorderRate: 1})
	first := in.Deliver(&probe.Measurement{ID: 1}, &probe.Measurement{ID: 2})
	if len(first) != 0 {
		t.Fatalf("ReorderRate 1 should hold the whole first batch, delivered %v", first)
	}
	second := in.Deliver(&probe.Measurement{ID: 3})
	// Batch 2 is also held; batch 1's held records land after it — here that
	// means batch 1 arrives alone, strictly after its own scheduling round.
	if len(second) != 2 || second[0].ID != 1 || second[1].ID != 2 {
		ids := []int{}
		for _, m := range second {
			ids = append(ids, m.ID)
		}
		t.Fatalf("second batch delivered IDs %v, want held [1 2]", ids)
	}
	tail := in.Flush()
	if len(tail) != 1 || tail[0].ID != 3 {
		t.Fatalf("Flush returned %v, want the held record 3", tail)
	}
	if again := in.Flush(); len(again) != 0 {
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
func (in *Injector) outageWindows(src topo.PoPID, horizon float64) []Window {
	if in.cfg.OutagesPerKiloHour <= 0 {
		return nil
	}
	sc := in.schedule(src)
	in.extend(sc, horizon)
	var out []Window
	for _, w := range sc.windows {
		if w.Start < horizon {
			out = append(out, w)
		}
	}
	return out
}
