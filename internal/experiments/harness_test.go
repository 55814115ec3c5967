package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/obs"
)

// crowdLoopReference is the recurring flash-crowd loop the experiments
// wrote out by hand before crowdPlan, in its most general form: several
// links per crowd (collider) and the crowd windows recorded (instrument).
// It is the oracle crowdPlan.schedule must match bit for bit.
func crowdLoopReference(add func(traffic.FlashCrowd), rng *mathx.RNG, hours int, start,
	durBase, durSpread, magBase, magSpread, gapBase, gapSpread float64, links []topo.LinkID) [][2]float64 {
	var crowdHours [][2]float64
	for h := start; h < float64(hours); h += gapBase + gapSpread*rng.Float64() {
		dur := durBase + durSpread*rng.Float64()
		mag := magBase + magSpread*rng.Float64()
		for _, id := range links {
			add(traffic.FlashCrowd{Link: id, StartHour: h, Hours: dur, Magnitude: mag})
		}
		crowdHours = append(crowdHours, [2]float64{h, h + dur})
	}
	return crowdHours
}

// TestCrowdPlanMatchesHandWrittenLoop holds crowdPlan.schedule to the
// hand-written loop over random plans, horizons, seeds and link sets: the
// same crowds in the same order, and the same windows, under
// math.Float64bits.
func TestCrowdPlanMatchesHandWrittenLoop(t *testing.T) {
	gen := mathx.NewRNG(2024)
	bits := func(vs ...float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	crowdBits := func(cs []traffic.FlashCrowd) [][]uint64 {
		out := make([][]uint64, len(cs))
		for i, c := range cs {
			out[i] = append(bits(c.StartHour, c.Hours, c.Magnitude), uint64(c.Link))
		}
		return out
	}
	windowBits := func(ws [][2]float64) [][]uint64 {
		out := make([][]uint64, len(ws))
		for i, w := range ws {
			out[i] = bits(w[0], w[1])
		}
		return out
	}
	for trial := 0; trial < 300; trial++ {
		plan := crowdPlan{
			start: 40 * gen.Float64(),
			dur:   uniform{1 + 10*gen.Float64(), 20 * gen.Float64()},
			mag:   uniform{0.5 * gen.Float64(), 0.5 * gen.Float64()},
			gap:   uniform{1 + 60*gen.Float64(), 100 * gen.Float64()},
		}
		hours := gen.Intn(3000)
		links := make([]topo.LinkID, gen.Intn(4))
		for i := range links {
			links[i] = topo.LinkID(gen.Intn(50))
		}
		seed := uint64(gen.Intn(1 << 30))

		var got, want []traffic.FlashCrowd
		gotW := plan.schedule(func(c traffic.FlashCrowd) { got = append(got, c) }, mathx.NewRNG(seed), hours, links...)
		wantW := crowdLoopReference(func(c traffic.FlashCrowd) { want = append(want, c) }, mathx.NewRNG(seed), hours,
			plan.start, plan.dur.base, plan.dur.spread, plan.mag.base, plan.mag.spread, plan.gap.base, plan.gap.spread, links)
		if !reflect.DeepEqual(crowdBits(got), crowdBits(want)) {
			t.Fatalf("trial %d (plan %+v, hours %d, links %v): crowds differ from the hand-written loop:\n got %+v\nwant %+v",
				trial, plan, hours, links, got, want)
		}
		if !reflect.DeepEqual(windowBits(gotW), windowBits(wantW)) {
			t.Fatalf("trial %d: windows differ:\n got %v\nwant %v", trial, gotW, wantW)
		}
	}
}

// TestStagedRunStopsBetweenSeams: the four seams run in order, one span
// each named "<id>/<seam>" (an empty seam included), and a cancel that
// lands inside the scenario seam stops the run before the dataset seam
// starts, with the context's error named after that seam.
func TestStagedRunStopsBetweenSeams(t *testing.T) {
	var ran []string
	seam := func(name string) func(context.Context) error {
		return func(context.Context) error { ran = append(ran, name); return nil }
	}

	rec := obs.NewRecorder()
	err := stagedRun(obs.With(context.Background(), rec), "test",
		seam("scenario"), nil, seam("estimator"), seam("report"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"scenario", "estimator", "report"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("seams ran %v, want %v", ran, want)
	}
	var spans []string
	for _, sp := range rec.Spans() {
		spans = append(spans, sp.Name)
	}
	if want := []string{"test/scenario", "test/dataset", "test/estimator", "test/report"}; !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans %v, want %v", spans, want)
	}

	ran = nil
	ctx, cancel := context.WithCancel(context.Background())
	err = stagedRun(ctx, "test", func(context.Context) error {
		ran = append(ran, "scenario")
		cancel() // cancellation lands while the scenario seam is running
		return nil
	}, seam("dataset"), seam("estimator"), seam("report"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := err.Error(), "pipeline: stage test/dataset: context canceled"; got != want {
		t.Fatalf("err = %q, want %q", got, want)
	}
	if want := []string{"scenario"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("seams ran %v after the cancel, want only %v", ran, want)
	}
}
