// Benchmarks regenerating every quantitative element of the paper (see
// DESIGN.md's per-experiment index) plus the design-choice ablations.
// Each Benchmark runs the full pipeline per iteration at a reduced-but-
// faithful scale; run with
//
//	make bench            # go test -run='^$' -bench=. -benchmem .
//
// End-to-end and per-stage numbers, with spread, come from the benchmark
// module instead: bash benchmark/run.sh --workload suite|sweep|serve.
package sisyphus

import (
	"context"
	"fmt"
	"testing"

	"sisyphus/internal/artifact"
	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/experiments"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/parallel"
	"sisyphus/internal/sweep"
)

// BenchmarkTable1IXPStudy regenerates Table 1: the six-week NAPAfrica case
// study with robust synthetic control and placebo inference.
func BenchmarkTable1IXPStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunTable1(context.Background(), parallel.Pool{}, experiments.Table1Config{
			Weeks: 4, JoinWeek: 2, Seed: uint64(i), Method: synthetic.Robust,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfounderAdjustment regenerates the §3 running example
// (naive vs stratified vs regression vs IPW vs ground truth) at its
// registered default horizon.
func BenchmarkConfounderAdjustment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunConfounding(context.Background(), parallel.Pool{}, uint64(i), experiments.WorldOptions{Hours: 1500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColliderBias regenerates the speed-test collider box.
func BenchmarkColliderBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCollider(context.Background(), parallel.Pool{}, uint64(i), 800); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellularConfounding regenerates the cellular-reliability box.
func BenchmarkCellularConfounding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCellular(context.Background(), uint64(i), 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLabRandomization regenerates the M-Lab randomization contrast.
func BenchmarkMLabRandomization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMLab(context.Background(), parallel.Pool{}, uint64(i), experiments.WorldOptions{Hours: 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentalVariable regenerates the valid/invalid IV contrast
// at its registered default horizon.
func BenchmarkInstrumentalVariable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunInstrument(context.Background(), parallel.Pool{}, uint64(i), experiments.WorldOptions{Hours: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterfactual regenerates the abduction-vs-replay comparison.
func BenchmarkCounterfactual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCounterfactual(context.Background(), parallel.Pool{}, uint64(i), experiments.WorldOptions{Hours: 600}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExposureVsImpact regenerates the Xaminer-box cable-cut sweep.
func BenchmarkExposureVsImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExposure(context.Background(), parallel.Pool{}, uint64(i), experiments.ExposureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntentTagging regenerates the §4 platform-design demonstration.
func BenchmarkIntentTagging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunIntent(context.Background(), parallel.Pool{}, uint64(i), 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllSuite runs the full experiment suite over a cold artifact
// store and over a warm one, so the cost of the hit path is measured apart
// from the builds (output bytes are identical, which the goldens pin).
func BenchmarkAllSuite(b *testing.B) {
	run := func(b *testing.B, store *artifact.Store) {
		b.Helper()
		outs, err := experiments.RunAll(context.Background(), experiments.Config{
			Seed: 42, Pool: parallel.Pool{}, Artifacts: store,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, oc := range outs {
			if oc.Err != nil {
				b.Fatalf("%s: %v", oc.Exp.ID, oc.Err)
			}
		}
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, artifact.NewStore())
		}
	})
	// The pure hit path: one store warmed by a first run, every iteration
	// served entirely from resident artifacts through copy-on-write forks.
	// This is the serving-mode number the fork benchmarks below decompose.
	b.Run("cached-warm", func(b *testing.B) {
		store := artifact.NewStore()
		run(b, store)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, store)
		}
	})
}

// BenchmarkSweepGrid runs the sweep driver over a small but real grid — the
// canned Table 1 world plus a generated internet, four seeds each — to
// measure the cost of a distributional-report cell matrix with shared world
// artifacts.
func BenchmarkSweepGrid(b *testing.B) { benchSweep(b, "table1") }

// BenchmarkSweepGridWide runs the full-breadth grid the scenario-generic
// experiment layer unlocked: Table 1 plus three of the newly
// scenario-capable runners (did, exposure, rootcause) over both worlds.
// did's 4-week campaigns are keys of their own, but they branch from the
// no-join trunk table1's campaigns share per ⟨scenario, seed⟩, so did
// simulates only the hours after its week-2 join — the wide grid's
// marginal cost over BenchmarkSweepGrid is mostly the extra analysis, the
// number that justifies sweeping the widened set by default.
func BenchmarkSweepGridWide(b *testing.B) {
	benchSweep(b, "table1", "did", "exposure", "rootcause")
}

// benchSweep runs the experiments over southafrica and a small generated
// world at seeds 1–4, on a fresh store per iteration.
func benchSweep(b *testing.B, experiments ...string) {
	genID, err := scenario.RegisterGen(func() scenario.GenSpec {
		sp := scenario.DefaultGenSpec()
		sp.Config.Access = 10
		sp.Config.Treated = 2
		sp.Seed = 3
		return sp
	}())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), sweep.GridConfig{
			Experiments: experiments,
			Scenarios:   []string{scenario.SouthAfricaID, genID},
			Seeds:       []uint64{1, 2, 3, 4},
			Pool:        parallel.Pool{},
			Artifacts:   artifact.NewStore(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Failures) != 0 {
			b.Fatalf("sweep cells failed: %+v", rep.Failures)
		}
	}
}

// --- Fork benchmarks: the copy-on-write cache-hit primitives ---
//
// The world benchmark contrasts the frozen (copy-on-write, what every cache
// hit pays) and mutable (private overlay copies) fork of the same world. A
// campaign hit pays exactly a world fork: its frozen measurement store is
// shared, not forked. Timings are not gated; allocation tests hold each
// frozen fork to a size-independent allocation count
// (bgp.TestFrozenForkAllocations, topo.TestFrozenCloneAllocations,
// scenario.TestFrozenWorldForkAllocations).

// BenchmarkForkWorld forks the Table 1 scenario world.
func BenchmarkForkWorld(b *testing.B) {
	build := func(b *testing.B) *scenario.World {
		b.Helper()
		s, err := scenario.Build(scenario.SouthAfricaID)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	frozen := build(b)
	frozen.Freeze()
	mutable := build(b)
	b.Run("cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchWorldSink = frozen.Fork()
		}
	})
	b.Run("deep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchWorldSink = mutable.Fork()
		}
	})
}

// BenchmarkForkRIB forks the converged empty-policy RIB of the Table 1
// world, rebound onto a fresh topology clone (exactly the artifact store's
// fork recipe). A converged RIB is immutable, so there is no deep variant:
// every fork shares the route tables.
func BenchmarkForkRIB(b *testing.B) {
	s, err := scenario.Build(scenario.SouthAfricaID)
	if err != nil {
		b.Fatal(err)
	}
	rib, err := bgp.Compute(context.Background(), parallel.Pool{}, s.Topo, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.Topo.Freeze()
	world := s.Topo.Clone()
	b.Run("cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRIBSink = rib.Fork(world)
		}
	})
}

// Package-level sinks keep the compiler from eliding the forks.
var (
	benchWorldSink *scenario.World
	benchRIBSink   *bgp.RIB
)

// --- Ablations (DESIGN.md "design choices called out for ablation") ---

func scPanel(seed uint64) *synthetic.Panel {
	r := mathx.NewRNG(seed)
	nUnits, nTimes := 15, 80
	units := make([]string, nUnits)
	times := make([]float64, nTimes)
	for i := range units {
		units[i] = string(rune('a' + i))
	}
	for t := range times {
		times[t] = float64(t)
	}
	y := mathx.NewMatrix(nUnits, nTimes)
	loads := make([]float64, nUnits)
	for i := range loads {
		loads[i] = 0.5 + r.Float64()
	}
	for t := 0; t < nTimes; t++ {
		f := 20 + 5*r.Float64()
		for i := 0; i < nUnits; i++ {
			y.Set(i, t, loads[i]*f+r.Normal(0, 2))
		}
	}
	for t := 60; t < nTimes; t++ {
		y.Set(0, t, y.At(0, t)-4)
	}
	p, err := synthetic.NewPanel(units, times, y)
	if err != nil {
		panic(err)
	}
	return p
}

// BenchmarkAblationRobustVsClassicSC compares the two synthetic-control
// variants on the same noisy panel.
func BenchmarkAblationRobustVsClassicSC(b *testing.B) {
	b.Run("classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := scPanel(uint64(i))
			if _, err := synthetic.Fit(p, "a", 60, synthetic.Config{Method: synthetic.Classic}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("robust", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := scPanel(uint64(i))
			if _, err := synthetic.Fit(p, "a", 60, synthetic.Config{Method: synthetic.Robust}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPlaceboVsTTest compares placebo inference against the
// naive pre/post t-test on the same panel.
func BenchmarkAblationPlaceboVsTTest(b *testing.B) {
	b.Run("placebo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := scPanel(uint64(i))
			if _, err := synthetic.PlaceboTest(context.Background(), p, "a", 60, synthetic.Config{Method: synthetic.Robust}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepost-ttest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := scPanel(uint64(i))
			if _, _, err := synthetic.PrePostTTest(p, "a", 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAdjustmentMethods compares the backdoor estimators on an
// identical confounded sample (generated once per iteration).
func BenchmarkAblationAdjustmentMethods(b *testing.B) {
	gen := func(seed uint64) *Study {
		s := NewStudy("bench")
		if err := s.WithGraphText("C -> R; C -> L; R -> L"); err != nil {
			b.Fatal(err)
		}
		if err := s.Effect("R", "L"); err != nil {
			b.Fatal(err)
		}
		s.WithData(confoundedFrame(seed, 5000, 3))
		return s
	}
	for _, m := range []struct {
		name   string
		method EstimationMethod
	}{
		{"naive", Naive},
		{"stratified", BackdoorStratified},
		{"regression", BackdoorRegression},
		{"ipw", BackdoorIPW},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := gen(uint64(i))
				if _, err := s.EstimateEffect(m.method); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWhatIfRouting compares the ways to answer a forced
// contrast on the southafrica world — "what would AS3741's path to the
// content AS be with Transit-A de-preffed?": converging every destination
// under the edited policy and again under the restored one (recompute,
// what the engine paid per edit before its route memo), editing the live
// policy and re-keying the factual RIB, which the route memo answers after
// the first time (live-edit), and PerfToASWith converging only the
// measured destination on a policy clone (whatif-miss) or answering a
// repeated question from its memo (whatif).
func BenchmarkAblationWhatIfRouting(b *testing.B) {
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		b.Fatal(err)
	}
	e := engine.New(s.Topo, 1, engine.Config{})
	src, err := s.Topo.FindPoP(3741, "East London")
	if err != nil {
		b.Fatal(err)
	}
	avoidA := func(p *bgp.Policy) { p.SetLocalPref(3741, scenario.ZATransitA, 10) }
	b.Run("recompute", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			pol := e.Policy.Clone()
			avoidA(pol)
			rib, err := bgp.Compute(ctx, parallel.Pool{}, s.Topo, pol)
			if err != nil {
				b.Fatal(err)
			}
			dst, err := rib.NearestPoP(src, scenario.BigContent)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.PerfOn(rib, src, dst); err != nil {
				b.Fatal(err)
			}
			if _, err := bgp.Compute(ctx, parallel.Pool{}, s.Topo, e.Policy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("live-edit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			avoidA(e.Policy)
			e.MarkDirty()
			if _, err := e.PerfToAS(src, scenario.BigContent); err != nil {
				b.Fatal(err)
			}
			e.Policy.ClearLocalPref(3741, scenario.ZATransitA)
			e.MarkDirty()
			if _, err := e.RIB(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// whatif repeats one question, as a forced contrast does every hour:
	// the engine's memo answers all but the first.
	b.Run("whatif", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.PerfToASWith(src, scenario.BigContent, avoidA); err != nil {
				b.Fatal(err)
			}
		}
	})
	// whatif-miss asks a new question every iteration (an ever lower
	// preference for the avoided transit), so each one converges the
	// destination afresh.
	b.Run("whatif-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			avoid := func(p *bgp.Policy) { p.SetLocalPref(3741, scenario.ZATransitA, 10-i) }
			if _, err := e.PerfToASWith(src, scenario.BigContent, avoid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Microbenchmarks for the core primitives ---

func BenchmarkDSeparation(b *testing.B) {
	r := mathx.NewRNG(3)
	g := randomBenchDAG(r, 12, 0.3)
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := nodes[i%len(nodes)]
		y := nodes[(i+5)%len(nodes)]
		g.DSeparated(x, y, nodes[:2])
	}
}

func BenchmarkBGPFullCompute(b *testing.B) {
	r := mathx.NewRNG(4)
	tp, err := topo.Generate(r, topo.DefaultGenConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Compute(context.Background(), parallel.Pool{}, tp, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVD(b *testing.B) {
	r := mathx.NewRNG(5)
	m := mathx.NewMatrix(40, 20)
	for i := range m.Data {
		m.Data[i] = r.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mathx.ComputeSVD(m)
	}
}

// BenchmarkMulVecTo times classic synthetic control's Frank–Wolfe kernel at
// its two shapes: the donor pre-period matrix (pre-period bins × ~20
// donors) times the weights, and its transpose times the residual.
func BenchmarkMulVecTo(b *testing.B) {
	for _, sh := range []struct{ rows, cols int }{{42, 20}, {20, 42}} {
		b.Run(fmt.Sprintf("%dx%d", sh.rows, sh.cols), func(b *testing.B) {
			r := mathx.NewRNG(6)
			m := mathx.NewMatrix(sh.rows, sh.cols)
			for i := range m.Data {
				m.Data[i] = r.Normal(0, 1)
			}
			v, out := make(mathx.Vector, sh.cols), make(mathx.Vector, sh.rows)
			for i := range v {
				v[i] = r.Normal(0, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVecTo(out, v)
			}
		})
	}
}

// utilSink keeps BenchmarkUtilization's reads live.
var utilSink float64

// BenchmarkUtilization times one traffic-model read of a link's
// utilization on a generated internet, read the way a simulation step reads
// it: every link three times per step, so two reads in three are repeats.
func BenchmarkUtilization(b *testing.B) {
	tp, err := topo.Generate(mathx.NewRNG(4), topo.DefaultGenConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := traffic.NewModel(tp, 1)
	n := tp.NumLinks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i / (3 * n)
		utilSink = m.Utilization(topo.LinkID(i%n), float64(step), step)
	}
}

// BenchmarkRootCauseReplay regenerates the §1 postmortem (three replayed
// worlds per iteration).
func BenchmarkRootCauseReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRootCause(context.Background(), parallel.Pool{}, uint64(i), experiments.RootCauseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFamilyToggleIV regenerates the §4 IPv4/IPv6 knob experiment at
// its registered default horizon.
func BenchmarkFamilyToggleIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFamilyKnob(context.Background(), parallel.Pool{}, uint64(i), experiments.WorldOptions{Hours: 1500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiDvsSC regenerates the DiD-vs-synthetic-control contrast.
func BenchmarkDiDvsSC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDiD(context.Background(), parallel.Pool{}, uint64(i), experiments.DiDOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerAnalysis regenerates the §4 design-planning power curve.
func BenchmarkPowerAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPower(context.Background(), parallel.Pool{}, uint64(i), 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTromboneEraContrast regenerates the two-era comparison.
func BenchmarkTromboneEraContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTromboneEra(context.Background(), parallel.Pool{}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
