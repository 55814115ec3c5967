// Command netsim runs the simulated South African Internet standalone and
// dumps a measurement CSV — useful for analyzing the synthetic data with
// external tools or inspecting the world the experiments run on.
//
// Usage:
//
//	netsim -hours 168 -seed 7 > measurements.csv
//	netsim -hours 336 -join 168 -summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/engine"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/platform"
	"sisyphus/internal/probe"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2) // the flag package has printed the problem and usage
		}
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

// usageError is a command line the flag package rejected.
type usageError struct{ error }

// run is the whole command: it parses args, simulates, and writes the CSV,
// description or summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	var (
		hours    = fs.Float64("hours", 168, "simulated hours")
		join     = fs.Float64("join", 0, "hour at which treated ASes join the IXP (0 = never)")
		seed     = fs.Uint64("seed", 42, "random seed")
		summary  = fs.Bool("summary", false, "print per-unit RTT summaries instead of CSV")
		describe = fs.Bool("describe", false, "print per-column statistics instead of CSV")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	s, err := scenario.BuildSouthAfrica()
	if err != nil {
		return err
	}
	e := engine.New(s.Topo, *seed, engine.Config{AdaptiveEgress: true})
	pr := probe.NewProber(e, *seed+1)
	if *join > 0 {
		for _, asn := range s.TreatedASNs {
			e.Schedule(engine.EvJoinIXP(*join, s.IXPName, asn, 0.02))
		}
	}
	var pops []platform.UserPop
	for _, u := range s.AllUnits() {
		src, err := s.UserPoP(u)
		if err != nil {
			return err
		}
		pops = append(pops, platform.UserPop{Src: src, Dst: scenario.BigContent, Size: 1})
	}
	um := platform.NewUserModel(pops, *seed+2)
	store := platform.NewStore()
	var ms []*probe.Measurement
	for e.Hour() < *hours {
		if err := e.Step(); err != nil {
			return err
		}
		if ms, err = um.Step(pr, ms[:0], nil); err != nil {
			return err
		}
		if err := store.Add(ms...); err != nil {
			return err
		}
	}

	if *summary {
		fmt.Fprintf(stdout, "%d measurements over %.0f hours from %d units\n\n", store.Len(), *hours, len(pops))
		for _, u := range store.Units() {
			ms := store.Filter(func(m *probe.Measurement) bool {
				return m.SrcASN == u.ASN && m.SrcCity == u.City
			})
			rtts := make([]float64, len(ms))
			for i, m := range ms {
				rtts[i] = m.RTTms
			}
			sum := mathx.Summarize(rtts)
			fmt.Fprintf(stdout, "  %-28s n=%4d  median=%6.2f ms  p95=%6.2f ms\n", u, sum.N, sum.Median, sum.P95)
		}
		return nil
	}
	frame := platform.Frame(store.All())
	if *describe {
		_, err := fmt.Fprint(stdout, frame.Describe())
		return err
	}
	return frame.WriteCSV(stdout)
}
