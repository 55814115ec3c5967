// Command dagtool analyzes a causal DAG the way §4 recommends doing before
// any measurement: it prints backdoor paths, minimal adjustment sets,
// instruments, colliders, testable implications, and Graphviz output.
//
// Usage:
//
//	dagtool -graph 'C -> R; C -> L; R -> L' -effect R,L
//	dagtool -graph 'U [latent]; U -> R; U -> L; Z -> R; R -> L' -effect R,L -dot
//	echo 'C -> R -> L; C -> L' | dagtool -effect R,L
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sisyphus/internal/causal/dag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command over explicit streams; it returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dagtool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphText = fs.String("graph", "", "DAG in text syntax (reads stdin if empty)")
		effect    = fs.String("effect", "", "treatment,outcome pair")
		dot       = fs.Bool("dot", false, "print Graphviz DOT and exit")
		blanket   = fs.String("markov-blanket", "", "print the Markov blanket of a node")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	text := *graphText
	if text == "" {
		b, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintln(stderr, "dagtool:", err)
			return 1
		}
		text = string(b)
	}
	g, err := dag.Parse(text)
	if err != nil {
		fmt.Fprintln(stderr, "dagtool:", err)
		return 1
	}
	if *dot {
		fmt.Fprint(stdout, g.DOT())
		return 0
	}

	fmt.Fprintf(stdout, "nodes: %v\n", g.Nodes())
	fmt.Fprintf(stdout, "edges: %v\n", g.Edges())
	if cis := g.ImpliedIndependencies(); len(cis) > 0 {
		fmt.Fprintln(stdout, "testable implications:")
		for _, ci := range cis {
			fmt.Fprintf(stdout, "  %s\n", ci)
		}
	}
	if cols := g.Colliders(); len(cols) > 0 {
		fmt.Fprintln(stdout, "colliders (do not condition on these without care):")
		for _, c := range cols {
			fmt.Fprintf(stdout, "  %s -> %s <- %s\n", c.Left, c.Mid, c.Right)
		}
	}

	if *blanket != "" {
		fmt.Fprintf(stdout, "markov blanket of %s: %v\n", *blanket, g.MarkovBlanket(*blanket))
	}
	if *effect == "" {
		return 0
	}
	parts := strings.Split(*effect, ",")
	if len(parts) != 2 {
		fmt.Fprintln(stderr, "dagtool: -effect wants 'treatment,outcome'")
		return 2
	}
	id := g.Identify(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	fmt.Fprintf(stdout, "\neffect: %s -> %s\n", id.Treatment, id.Outcome)
	fmt.Fprintln(stdout, "backdoor paths:")
	for _, p := range id.BackdoorPaths {
		fmt.Fprintf(stdout, "  %s\n", p)
	}
	if id.AdjustmentSets != nil {
		fmt.Fprintf(stdout, "minimal adjustment sets: %v\n", id.AdjustmentSets)
	} else {
		fmt.Fprintf(stdout, "backdoor adjustment unavailable: %s\n", id.BackdoorFailure)
	}
	if len(id.Instruments) > 0 {
		fmt.Fprintf(stdout, "instruments: %v\n", id.Instruments)
	} else {
		fmt.Fprintln(stdout, "instruments: none")
	}
	if len(id.FrontdoorMediators) > 0 {
		fmt.Fprintf(stdout, "frontdoor mediators: %v\n", id.FrontdoorMediators)
	}
	return 0
}
