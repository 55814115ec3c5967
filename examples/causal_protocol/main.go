// causal_protocol runs the complete §4 workflow end to end on *simulated
// measurement data*: declare the DAG, identify, collect a campaign from the
// simulated platform, validate the graph's testable implications, estimate
// with the matching estimator, then stress the conclusion with refuters,
// an E-value sensitivity analysis, and PC structure discovery.
//
// Run with: go run ./examples/causal_protocol
package main

import (
	"fmt"
	"log"

	"sisyphus"
	"sisyphus/internal/causal/data"
	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
)

func main() {
	// ------------------------------------------------------------------
	// 1. Declare the question and the assumptions.
	// ------------------------------------------------------------------
	study := sisyphus.NewStudy("Does AS3741's egress switch to Transit-B raise its users' RTT?")
	if err := study.WithGraphText("C -> R; C -> L; R -> L"); err != nil {
		log.Fatal(err)
	}
	if err := study.Effect("R", "L"); err != nil {
		log.Fatal(err)
	}
	id, err := study.Identify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("1. identification:", id.Strategy)

	// ------------------------------------------------------------------
	// 2. Collect: hourly observations from the simulated platform, with
	//    exogenous route tests providing overlap (a §4 knob in action).
	// ------------------------------------------------------------------
	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		log.Fatal(err)
	}
	e := engine.New(s.Topo, 42, engine.Config{AdaptiveEgress: true})
	rel, err := s.Topo.Relationships()
	if err != nil {
		log.Fatal(err)
	}
	primary := rel.Links[3741][scenario.ZATransitA][0]
	crowdRNG := mathx.NewRNG(43)
	for h := 30.0; h < 1200; h += 40 + 60*crowdRNG.Float64() {
		e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
			Link: primary, StartHour: h, Hours: 8 + 8*crowdRNG.Float64(), Magnitude: 0.3 + 0.2*crowdRNG.Float64(),
		})
	}
	src, err := s.Topo.FindPoP(3741, "East London")
	if err != nil {
		log.Fatal(err)
	}
	flip := mathx.NewRNG(44)
	var cCol, rCol, lCol []float64
	for e.Hour() < 1200 {
		if err := e.Step(); err != nil {
			log.Fatal(err)
		}
		// Occasionally force each route (the exogenous knob), otherwise
		// observe whatever the adaptive controller chose. A forcing is a
		// what-if on a copy of the policy, so it never edits the engine's
		// own routing state.
		var avoid topo.ASN
		switch {
		case flip.Bernoulli(0.2):
			avoid = scenario.ZATransitA
		case flip.Bernoulli(0.25):
			avoid = scenario.ZATransitB
		}
		var perf engine.PathPerf
		if avoid != 0 {
			perf, err = e.PerfToASWith(src, scenario.BigContent, func(p *bgp.Policy) {
				p.SetLocalPref(3741, avoid, 10)
			})
		} else {
			perf, err = e.PerfToAS(src, scenario.BigContent)
		}
		if err != nil {
			log.Fatal(err)
		}
		onAlt := 0.0
		for _, asn := range perf.Path.ASPath {
			if asn == scenario.ZATransitB {
				onAlt = 1
			}
		}
		cCol = append(cCol, e.Utilization(primary))
		rCol = append(rCol, onAlt)
		lCol = append(lCol, perf.RTTms)
		// Every hour ends with AS3741's transit preferences reset, so an
		// adaptive shift away from a congested transit is observed for
		// the hour it fires only. The reset edits the factual v4 policy,
		// so it marks v4 routing dirty — only when there was an override.
		if len(e.Policy.LocalPref[3741]) > 0 {
			e.Policy.ClearLocalPref(3741, scenario.ZATransitA)
			e.Policy.ClearLocalPref(3741, scenario.ZATransitB)
			e.MarkDirty()
		}
	}
	frame, err := data.FromColumns(map[string][]float64{"C": cCol, "R": rCol, "L": lCol})
	if err != nil {
		log.Fatal(err)
	}
	study.WithData(frame)
	fmt.Printf("2. collected %d hourly observations (%.0f%% on the alternate route)\n",
		frame.Len(), 100*mathx.Mean(rCol))

	// ------------------------------------------------------------------
	// 3. Estimate + report.
	// ------------------------------------------------------------------
	est, err := study.EstimateEffect(sisyphus.Auto)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := est.CI(0.95)
	fmt.Printf("3. estimate (%s): %+.2f ms [%.2f, %.2f]\n", est.Method, est.Effect, lo, hi)

	// ------------------------------------------------------------------
	// 4. Stress the conclusion.
	// ------------------------------------------------------------------
	refs, err := study.Refute(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("4. refutation battery:")
	for _, r := range refs {
		fmt.Println("   ", r)
	}
	sens, err := study.SensitivityReport()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("5. sensitivity to unmeasured confounding:")
	fmt.Println(indent(sens))
	cmp, pdag, err := study.StructureCheck()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("6. structure discovery: %v (SHD vs assumed graph: %d)\n", pdag, cmp.SHD)
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
