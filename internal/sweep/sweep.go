// Package sweep fans experiment runs across a scenario×seed grid and
// aggregates the per-run estimates into distributional reports: per
// estimator, the bias/RMSE/coverage/placebo-p quantiles over the whole
// grid. One simulated run answers "what did the estimator say here"; the
// grid answers the question the paper keeps circling — how the estimator's
// answers are *distributed* over worlds and randomness, which is what a
// claim like "the method is unbiased with honest p-values" actually means.
//
// The driver reuses the suite's machinery end to end: cells fan out over
// parallel.Pool, every cell pulls its world/RIB/campaign artifacts through
// one shared artifact.Store (worlds are keyed seed-independently, so 200
// seeds of one scenario share a single world build), and each cell is
// fault-isolated — a panic, timeout, or error in one cell becomes a
// reported failure, not a dead grid.
package sweep

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
)

// GridConfig describes a sweep: the cross product of experiments ×
// scenarios × seeds, plus the execution machinery every cell shares.
type GridConfig struct {
	// Experiments are the experiment ids to sweep. Every one must be
	// scenario-capable (its options carry a scenario id — see
	// experiments.ScenarioCapableIDs) and produce Sampler results.
	Experiments []string
	// Scenarios are registered world ids (canned names or gen/<cfghash>
	// ids; resolve gen: specs with scenario.ResolveID first).
	Scenarios []string
	// Seeds are the per-cell root seeds.
	Seeds []uint64
	// Pool shards the grid; cells also pass it down into their own internal
	// fan-outs. The grid is bit-identical at any width.
	Pool parallel.Pool
	// Artifacts is shared by every cell, so cells agreeing on a ⟨kind,
	// scenario, seed, config⟩ coordinate share one build; nil is one fresh
	// store for the grid. The world and RIB artifacts are keyed
	// seed-independently: a whole seed column of the grid builds its world
	// once.
	Artifacts *artifact.Store
	// CellTimeout bounds each cell's wall-clock time; a cell hitting it is
	// recorded as failed (context.DeadlineExceeded), isolated from the
	// rest of the grid. Zero means no per-cell bound.
	CellTimeout time.Duration
}

// cell is one grid point, in canonical order: experiment-major,
// then scenario, then seed.
type cell struct {
	exp      experiments.Experiment
	opts     experiments.Options
	scenario string
	seed     uint64
}

// CellResult is one grid point's outcome: either Samples or Err.
type CellResult struct {
	Experiment string
	Scenario   string
	Seed       uint64
	// Err is the cell's failure, "" when the cell completed. A failed cell
	// contributes no samples but stays in the report's accounting.
	Err     string `json:",omitempty"`
	Samples []experiments.Sample
}

// Run executes the grid and aggregates the surviving samples into a
// Report. Cell order — and therefore the report — is deterministic at any
// pool width: cells are enumerated experiment-major before fan-out and
// parallel.Map returns them in order. Cancelling ctx abandons unscheduled
// cells and returns the context error; individual cell failures do not.
func Run(ctx context.Context, cfg GridConfig) (*Report, error) {
	cells, err := expand(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Artifacts = artifact.OrNew(cfg.Artifacts)
	results, err := parallel.Map(ctx, cfg.Pool, len(cells), func(i int) (CellResult, error) {
		return runCell(ctx, cfg, cells[i]), nil
	})
	if err != nil {
		return nil, err
	}
	return aggregate(cfg, results), nil
}

// expand validates the grid spec and enumerates its cells in canonical
// order. Validation is all up front — an unknown experiment, a
// non-scenario-capable one, or an unregistered scenario id fails the whole
// sweep before any cell burns simulation time.
func expand(cfg GridConfig) ([]cell, error) {
	if len(cfg.Experiments) == 0 || len(cfg.Scenarios) == 0 || len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: grid needs at least one experiment, scenario, and seed (got %d×%d×%d)",
			len(cfg.Experiments), len(cfg.Scenarios), len(cfg.Seeds))
	}
	var cells []cell
	for _, id := range cfg.Experiments {
		e, err := experiments.Get(id)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for _, sc := range cfg.Scenarios {
			if !scenario.Registered(sc) {
				return nil, fmt.Errorf("sweep: unknown scenario id %q (known: %v; gen: specs must be resolved via scenario.ResolveID)", sc, scenario.IDs())
			}
			opts, err := e.OptionsForScenario(sc)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			for _, seed := range cfg.Seeds {
				cells = append(cells, cell{exp: e, opts: opts, scenario: sc, seed: seed})
			}
		}
	}
	return cells, nil
}

// runCell executes one grid point under the cell's timeout, converting
// every failure mode — error, panic, timeout, non-Sampler result — into a
// recorded CellResult so neighboring cells keep running.
func runCell(ctx context.Context, cfg GridConfig, c cell) (res CellResult) {
	res = CellResult{Experiment: c.exp.ID, Scenario: c.scenario, Seed: c.seed}
	if cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.CellTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			res.Samples = nil
		}
	}()
	out, err := c.exp.Run(ctx, experiments.Config{
		Seed:      c.seed,
		Pool:      cfg.Pool,
		Artifacts: cfg.Artifacts,
		Opts:      c.opts,
	})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	sampler, ok := out.(experiments.Sampler)
	if !ok {
		res.Err = fmt.Sprintf("result %T does not produce samples", out)
		return res
	}
	res.Samples = sampler.Samples()
	return res
}
