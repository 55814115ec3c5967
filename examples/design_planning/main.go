// design_planning walks §4's pre-measurement checklist for a planned IXP
// study: declare the DAG and check identifiability (dagtool-style), then
// compute the design's statistical resolution — the power curve and the
// minimum detectable effect — *before* collecting a single measurement.
//
// The punchline connects back to Table 1: several of the paper's units
// moved by less than the design's minimum detectable effect, so their
// "not significant" verdicts were baked in at design time.
//
// Run with: go run ./examples/design_planning
package main

import (
	"context"
	"fmt"
	"log"

	"sisyphus/internal/causal/dag"
	"sisyphus/internal/causal/power"
	"sisyphus/internal/causal/synthetic"
	"sisyphus/internal/parallel"
)

func main() {
	// Step 1: identifiability on the planned DAG.
	g := dag.MustParse(`
		# IXP adoption study: T = IXP appears in path, L = median RTT.
		# Confounders the paper names: load, policy, infrastructure churn.
		Load -> T; Load -> L
		Policy [latent]
		Policy -> T
		Infra -> T; Infra -> L
		T -> L
	`)
	fmt.Println("planned DAG edges:", g.Edges())
	sets, err := g.MinimalAdjustmentSets("T", "L")
	if err != nil {
		fmt.Println("backdoor unavailable:", err)
	} else {
		fmt.Println("minimal adjustment sets:", sets)
	}
	fmt.Println("(synthetic control conditions on pre-trends instead of measuring Load/Infra directly)")
	fmt.Println()

	// Step 2: the design's resolution.
	design := power.SCDesign{
		Donors: 18, PrePeriods: 42, PostPeriods: 42,
		UnitNoise: 1.2, Method: synthetic.Robust,
	}
	fmt.Println("design: 18 donors, 6 weeks at 12h bins, ~1.2 ms unit noise")
	curve, err := design.Curve(context.Background(), parallel.Default(), 0.06, 80, 42)
	if err != nil {
		log.Fatal(err)
	}
	for _, eff := range []float64{0.5, 1, 2, 3} {
		fmt.Printf("  power to detect a %.1f ms effect: %.2f\n", eff, curve.Power(eff))
	}
	mde, err := curve.MinDetectableEffect(0.8, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimum detectable effect at 80%% power: %.2f ms\n", mde)
	fmt.Println("→ effects smaller than this will read as 'not significant' regardless of reality;")
	fmt.Println("  to resolve them, add donors, lengthen the panel, or reduce per-bin noise.")
}
