// Command sisyphus runs the paper-reproduction experiments and prints their
// tables.
//
// Usage:
//
//	sisyphus -list
//	sisyphus -experiment table1 [-seed 42]
//	sisyphus -all [-workers 8] [-timeout 5m]
//	sisyphus -all -trace run.jsonl -metrics [-pprof localhost:6060]
//
// -all runs the experiments concurrently on the -workers pool and prints
// them in ID order once all are done; -workers 1 is the sequential run, and
// every width prints the same bytes.
//
// The whole run is governed by one context: SIGINT (Ctrl-C) or an elapsed
// -timeout cancels it, experiments stop at their next pipeline-stage
// boundary, and a cancelled -all run reports which experiments completed
// before exiting non-zero.
//
// The observability flags are strictly additive: -trace writes a JSONL span
// log after the run, -metrics appends a counter/gauge summary (an object
// under a "metrics" key in -json mode), and -pprof serves net/http/pprof
// for the run's duration. With all three off no recorder exists and the
// experiment output is byte-identical to a build without the layer.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/sweep"
)

// validateFlags rejects a negative worker count, which is never
// meaningful. Any other -workers value applies to every run mode: the pool
// it sizes runs -all's experiments, a sweep's cells and each experiment's
// own parallel stages (Table 1's placebo fits, for one).
func validateFlags(workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", workers)
	}
	return nil
}

// validateObsFlags rejects observability flags on invocations that run no
// experiments (-list or no mode at all): a trace or metrics request that
// could only ever produce an empty report is a mistake, not a no-op.
func validateObsFlags(trace string, metrics bool, pprofAddr string, runs bool) error {
	if runs {
		return nil
	}
	switch {
	case trace != "":
		return fmt.Errorf("-trace requires a run (-all, -experiment, or -sweep)")
	case metrics:
		return fmt.Errorf("-metrics requires a run (-all, -experiment, or -sweep)")
	case pprofAddr != "":
		return fmt.Errorf("-pprof requires a run (-all, -experiment, or -sweep)")
	}
	return nil
}

// canceled reports whether err is the run context giving out (Ctrl-C or
// -timeout) rather than an experiment failing on its own.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// exitCancelled reports a cancelled -all run: which experiments finished,
// which never did, and a non-zero exit so scripts notice.
func exitCancelled(err error, completed, notRun []string) {
	join := func(ids []string) string {
		if len(ids) == 0 {
			return "(none)"
		}
		return strings.Join(ids, ", ")
	}
	fmt.Fprintf(os.Stderr, "sisyphus: run cancelled: %v\n", err)
	fmt.Fprintf(os.Stderr, "sisyphus: completed: %s\n", join(completed))
	fmt.Fprintf(os.Stderr, "sisyphus: not run: %s\n", join(notRun))
	os.Exit(1)
}

// writeMetricsJSON emits the recorder's metrics as a single JSON object under
// a "metrics" key — appended after the per-experiment objects in -json mode
// so those stay byte-identical to a metrics-free run.
func writeMetricsJSON(w io.Writer, m obs.Metrics) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]obs.Metrics{"metrics": m})
}

// writeTrace writes the recorder's span log as JSONL to path.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// servePprof binds addr and serves net/http/pprof (on the default mux) in
// the background for the remainder of the process. Binding synchronously
// means a bad address fails fast instead of being discovered mid-run.
func servePprof(addr string) (io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, nil) }()
	return ln, nil
}

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		exp       = flag.String("experiment", "", "experiment id to run")
		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Uint64("seed", 42, "random seed")
		asJSON    = flag.Bool("json", false, "emit results as JSON instead of tables")
		nworkers  = flag.Int("workers", 0, "worker-pool width for -all, -sweep and parallel stages (0 = GOMAXPROCS, 1 = sequential; output is bit-identical at every width)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (e.g. 90s, 10m); 0 = no limit")
		traceFile = flag.String("trace", "", "write a JSONL span trace of the run to this file")
		metrics   = flag.Bool("metrics", false, "print a metrics summary after the run (a \"metrics\" JSON object with -json)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run")
		scen      = flag.String("scenario", "", "with -experiment, run on this world instead of the default (a registered id or a gen: spec; see "+scenario.GenGrammar+")")
		sweepMode = flag.Bool("sweep", false, "run a scenario×seed sweep of -experiments and report estimate distributions")
		sweepExps = flag.String("experiments", "table1", "with -sweep, comma-separated experiment ids to sweep (scenario-capable only)")
		scenarios = flag.String("scenarios", scenario.SouthAfricaID, "with -sweep, comma-separated world ids or gen: specs")
		seedsSpec = flag.String("seeds", "", "with -sweep, seed grid: \"1..200\", \"1,2,5\", or mixed \"1..4,10\" (required)")
		cellTO    = flag.Duration("cell-timeout", 0, "with -sweep, per-cell wall-clock bound; a cell exceeding it is reported failed, the grid continues (0 = none)")
	)
	flag.Parse()
	expsSet, scenesSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "experiments":
			expsSet = true
		case "scenarios":
			scenesSet = true
		}
	})
	if err := validateFlags(*nworkers); err != nil {
		fmt.Fprintln(os.Stderr, "sisyphus:", err)
		os.Exit(2)
	}
	if err := validateSweepFlags(sweepFlags{
		sweep: *sweepMode, seeds: *seedsSpec, expsSet: expsSet, scenesSet: scenesSet,
		scenario: *scen, cellTimeout: *cellTO,
	}, *all, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "sisyphus:", err)
		os.Exit(2)
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "sisyphus: -timeout must be >= 0 (got %v)\n", *timeout)
		os.Exit(2)
	}
	runs := *all || *exp != "" || *sweepMode
	if err := validateObsFlags(*traceFile, *metrics, *pprofAddr, runs); err != nil {
		fmt.Fprintln(os.Stderr, "sisyphus:", err)
		os.Exit(2)
	}

	// The run's worker pool is a value scoped to this invocation — nothing
	// global is mutated, so two suites in one process cannot interfere.
	pool := parallel.Default()
	if *nworkers > 0 {
		pool = parallel.NewPool(*nworkers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The recorder exists only when something will consume it; otherwise the
	// context carries no recorder and every obs call inside the experiments
	// is the nil fast path (the zero-cost-when-off invariant).
	var rec *obs.Recorder
	if *traceFile != "" || *metrics {
		rec = obs.NewRecorder()
		ctx = obs.With(ctx, rec)
	}
	if *pprofAddr != "" {
		closer, err := servePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sisyphus: -pprof: %v\n", err)
			os.Exit(2)
		}
		defer closer.Close()
	}

	// The artifact store is likewise a per-invocation value, shared by
	// every experiment or sweep cell the invocation runs.
	store := artifact.NewStore()
	cfg := experiments.Config{Seed: *seed, Pool: pool, Artifacts: store}

	emit := func(res experiments.Renderable) {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fmt.Fprintln(os.Stderr, "sisyphus:", err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(res.Render())
	}

	switch {
	case *list:
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Paper)
		}
	case *sweepMode:
		// Sweep: fan -experiments × -scenarios × -seeds through the shared
		// pool and store, report estimate distributions over the grid.
		// Scenario tokens resolve up front — a bad gen: spec or unknown id is
		// a usage error, not a grid of failed cells.
		seeds, err := parseSeeds(*seedsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sisyphus:", err)
			os.Exit(2)
		}
		var scenes []string
		for _, tok := range splitList(*scenarios) {
			id, err := scenario.ResolveID(tok)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sisyphus: -scenarios:", err)
				os.Exit(2)
			}
			scenes = append(scenes, id)
		}
		rep, err := sweep.Run(ctx, sweep.GridConfig{
			Experiments: splitList(*sweepExps),
			Scenarios:   scenes,
			Seeds:       seeds,
			Pool:        pool,
			Artifacts:   store,
			CellTimeout: *cellTO,
		})
		if err != nil {
			if canceled(err) {
				fmt.Fprintf(os.Stderr, "sisyphus: sweep cancelled: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "sisyphus: -sweep:", err)
			os.Exit(2)
		}
		emit(rep)
		if len(rep.Failures) > 0 {
			fmt.Fprintf(os.Stderr, "sisyphus: sweep: %d of %d cells failed (see report)\n",
				len(rep.Failures), rep.Cells)
		}
	case *all:
		// The suite: experiments fan out across the pool, results print in
		// ID order once all are done — the same bytes at every width.
		outs, runErr := experiments.RunAll(ctx, cfg)
		var completed, notRun []string
		for _, oc := range outs {
			switch {
			case oc.Res != nil:
				fmt.Print(oc.Exp.Header())
				emit(oc.Res)
				completed = append(completed, oc.Exp.ID)
			case oc.Err != nil && !canceled(oc.Err):
				fmt.Print(oc.Exp.Header())
				fmt.Fprintf(os.Stderr, "sisyphus: %s: %v\n", oc.Exp.ID, oc.Err)
				os.Exit(1)
			default:
				// Cancelled mid-run or never scheduled: no output of its own.
				notRun = append(notRun, oc.Exp.ID)
			}
		}
		if runErr != nil {
			if canceled(runErr) {
				exitCancelled(runErr, completed, notRun)
			}
			fmt.Fprintln(os.Stderr, "sisyphus:", runErr)
			os.Exit(1)
		}
	case *exp != "":
		e, err := experiments.Get(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sisyphus:", err)
			os.Exit(2)
		}
		if *scen != "" {
			// Retarget the experiment's defaults at another world. Both the
			// resolution (unknown id, bad gen: spec) and the retargeting (a
			// non-scenario-capable experiment) are usage errors.
			id, err := scenario.ResolveID(*scen)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sisyphus: -scenario:", err)
				os.Exit(2)
			}
			opts, err := e.OptionsForScenario(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sisyphus: -scenario:", err)
				os.Exit(2)
			}
			cfg.Opts = opts
		}
		res, err := e.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sisyphus: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		emit(res)
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Cache epilogue: one summary line on stderr after a successful run, so
	// stdout (the golden surface) never sees it.
	if runs {
		fmt.Fprintf(os.Stderr, "sisyphus: %s\n", store.RenderStats())
	}

	// Observability epilogue — runs only after a fully successful run, so
	// trace files never hold a silently truncated span log.
	if rec != nil {
		if *traceFile != "" {
			if err := writeTrace(*traceFile, rec); err != nil {
				fmt.Fprintln(os.Stderr, "sisyphus: -trace:", err)
				os.Exit(1)
			}
		}
		if *metrics {
			if *asJSON {
				if err := writeMetricsJSON(os.Stdout, rec.Metrics()); err != nil {
					fmt.Fprintln(os.Stderr, "sisyphus: -metrics:", err)
					os.Exit(1)
				}
			} else {
				fmt.Print("=== metrics ===\n\n")
				fmt.Print(rec.Metrics().Render())
			}
		}
	}
}
