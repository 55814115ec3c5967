// Package experiments implements one runner per quantitative element of the
// paper: Table 1 (the NAPAfrica synthetic-control case study), the §3
// running example and its boxed counterexamples, the M-Lab randomization
// argument, instrumental variables on natural experiments, counterfactual
// replay, and the §4 platform-design demonstrations. Each runner returns a
// typed result plus a rendered text table; EXPERIMENTS.md records how the
// outputs compare with the paper.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sisyphus/internal/artifact"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/pipeline"
)

// Options is the marker interface for per-experiment typed options (trial
// counts, horizon hours, sweep grids). Each experiment declares its own
// options struct; the unexported method keeps arbitrary types out of
// Config.Opts so a mismatch is always a typed, reportable error.
type Options interface {
	experimentOptions()
}

// Config carries everything an experiment run needs besides the context:
// the seed all randomness derives from, the worker pool every internal
// fan-out shards over, and optional typed options. The zero value is valid
// (seed 0, default-width pool, registered default options).
type Config struct {
	// Seed is the root of every RNG stream the experiment consumes.
	Seed uint64
	// Pool shards the experiment's internal parallelism (placebo fits, BGP
	// propagation, Monte-Carlo trials). Experiments are bit-identical at
	// any width.
	Pool parallel.Pool
	// Artifacts memoizes scenario worlds, pre-converged RIBs, campaign
	// trunks and measurement campaigns by content-addressed key, so
	// experiments that request the same ⟨kind, scenario, seed, config⟩
	// share one build. Nil is one fresh store for the run (for RunAll, one
	// for the whole suite).
	Artifacts *artifact.Store
	// Opts are the experiment's typed options; nil runs the registered
	// defaults (Experiment.Defaults). Passing options of another
	// experiment's type is an error.
	Opts Options
	// Only, consumed by RunAll, restricts the suite to these experiment
	// IDs (nil means all). Unknown IDs are an error.
	Only []string
}

// noOptions rejects stray options on experiments that take none, so a typo'd
// Opts is a typed error rather than silently ignored.
func noOptions(id string, cfg Config) error {
	if cfg.Opts != nil {
		return fmt.Errorf("experiments: %s takes no options, got %T", id, cfg.Opts)
	}
	return nil
}

// HorizonOptions is the shared options type for the single-knob simulation
// experiments that run on purpose-built boards rather than a registry world
// (collider, intent): how many simulated hours to run. Each experiment
// registers its own default horizon.
type HorizonOptions struct {
	Hours int
}

func (HorizonOptions) experimentOptions() {}

// validate caps the horizon at QueryMaxHours, the bound /query applies to
// the same simulations; zero or less still means the registered default.
func (o HorizonOptions) validate() error { return validateHours(o.Hours) }

// validateHours rejects a simulated horizon above QueryMaxHours.
func validateHours(hours int) error {
	if hours > QueryMaxHours {
		return fmt.Errorf("experiments: Hours %d above the %d-hour cap", hours, QueryMaxHours)
	}
	return nil
}

// ScenarioChoice is the embeddable scenario coordinate for the options of
// scenario-capable experiments. The field is `json:"-"` on purpose: the
// scenario is addressed by the artifact-key/scenario coordinate (the
// -scenario flag, the ?scenario= parameter, a sweep column), never by the
// options document, so an options JSON round trip is byte-identical whether
// or not a scenario was chosen. Embedding it gives an options type the
// field and the ScenarioID getter; the type completes the ScenarioOptions
// capability by adding its own one-line WithScenario.
type ScenarioChoice struct {
	// Scenario names the registered world to run on; empty means the
	// default Table 1 world (scenario.SouthAfricaID).
	Scenario string `json:"-"`
}

// scenarioOr resolves an options scenario field to a concrete world id:
// empty means the default Table 1 world.
func scenarioOr(id string) string {
	if id == "" {
		return scenario.SouthAfricaID
	}
	return id
}

// ScenarioOptions is the capability interface scenario-generic experiments
// implement on their options: the registry asks the options value itself
// whether (and how) it can be retargeted at a world, instead of keeping a
// hard-coded list of capable experiment ids.
type ScenarioOptions interface {
	Options
	// WithScenario returns a copy of the options retargeted at the world.
	WithScenario(id string) Options
}

// WorldOptions is the shared options type for the registry-world simulation
// experiments (confounding, counterfactual, familyknob, instrument, mlab):
// the world to run on plus how many simulated hours to run. Each experiment
// registers its own default horizon.
type WorldOptions struct {
	ScenarioChoice
	Hours int
}

func (WorldOptions) experimentOptions() {}

// validate bounds a set horizon to [QueryMinHours, QueryMaxHours], the
// range /query serves for the same worlds: below it the estimators have
// too few hours to fit. Zero or less still means the registered default.
func (o WorldOptions) validate() error {
	if o.Hours > 0 && o.Hours < QueryMinHours {
		return fmt.Errorf("experiments: Hours %d below the %d-hour floor", o.Hours, QueryMinHours)
	}
	return validateHours(o.Hours)
}

// WithScenario implements ScenarioOptions.
func (o WorldOptions) WithScenario(id string) Options {
	o.Scenario = id
	return o
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string // e.g. "table1"
	Paper string // which paper element it reproduces
	// Defaults holds the registered default options — what Run uses when
	// cfg.Opts is nil, and what `sisyphus -all` runs. Exposed so callers
	// can start from the defaults and tweak one knob.
	Defaults Options
	// Run executes the experiment. It honors ctx (cancellation surfaces as
	// ctx.Err() within one pipeline-stage boundary) and derives all
	// randomness from cfg.Seed, so equal (seed, options) give bit-identical
	// results at any pool width.
	Run func(ctx context.Context, cfg Config) (Renderable, error)
}

// Header renders the experiment's suite-output section header (trailing
// blank line included), shared by the CLI and the golden tests so the two
// can never drift.
func (e Experiment) Header() string {
	return fmt.Sprintf("=== %s: %s ===\n\n", e.ID, e.Paper)
}

// OptionsForScenario returns the experiment's default options retargeted at
// the named world, for experiments whose options implement ScenarioOptions.
// The rest of the suite runs on purpose-built boards (or a fixed two-era
// contrast) and errors here, which is what makes `-scenario`/`-sweep`
// validation a typed refusal instead of a wrong answer on the wrong world.
func (e Experiment) OptionsForScenario(id string) (Options, error) {
	o, err := OptionsWithScenario(e.Defaults, id)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s does not take a scenario (scenario-capable: %s)",
			e.ID, strings.Join(ScenarioCapableIDs(), ", "))
	}
	return o, nil
}

// ScenarioCapableIDs lists the experiments whose options implement the
// ScenarioOptions capability, sorted.
func ScenarioCapableIDs() []string {
	var out []string
	for _, e := range All() {
		if _, ok := e.Defaults.(ScenarioOptions); ok {
			out = append(out, e.ID)
		}
	}
	return out
}

// Renderable is any experiment result that can print itself.
type Renderable interface {
	Render() string
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	// Registered runners return concrete result pointers; a failed run would
	// otherwise surface as a typed-nil Renderable that compares non-nil.
	// Normalize here so callers can rely on exactly one of (result, error).
	// The wrapper also scopes the run's observability: every span and metric
	// an experiment records lands under its ID (free when no recorder rides
	// the context — Scoped returns ctx unchanged).
	run := e.Run
	e.Run = func(ctx context.Context, cfg Config) (Renderable, error) {
		ctx = obs.Scoped(ctx, e.ID)
		// Ride the artifact store on the context so deeply nested helpers
		// (fetchWorld, fetchCampaign) reach it without threading a parameter
		// through every experiment signature; a nil store is a fresh one.
		ctx = artifact.With(ctx, cfg.Artifacts)
		res, err := run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	registry[e.ID] = e
}

// registerOptions registers an experiment whose options are a T: def is
// its Defaults, and Run hands run the config's pool and seed plus cfg.Opts
// as a T (def when unset; options of another type are an error).
func registerOptions[T Options, R Renderable](id, paper string, def T, run func(ctx context.Context, pool parallel.Pool, seed uint64, o T) (R, error)) {
	register(Experiment{ID: id, Paper: paper, Defaults: def,
		Run: func(ctx context.Context, cfg Config) (Renderable, error) {
			o := def
			if cfg.Opts != nil {
				var ok bool
				if o, ok = cfg.Opts.(T); !ok {
					return nil, fmt.Errorf("experiments: options are %T, want %T", cfg.Opts, def)
				}
			}
			return run(ctx, cfg.Pool, cfg.Seed, o)
		}})
}

// stagedRun threads an experiment body through the four canonical pipeline
// seams — Scenario → Dataset → Estimator → Report — each one pipeline.Run
// named "<id>/<seam>" over closure-shared state. Each seam entry is a
// cancellation barrier and a trace point, so every experiment run emits the
// same four-span shape and stops within one seam of a cancelled context. A
// nil body is an empty (but still traced) seam: some experiments have no
// separate dataset step because simulation and extraction are one loop.
//
// The bodies run strictly in order in the calling goroutine; the seams add
// no scheduling, no RNG draws, and no output.
func stagedRun(ctx context.Context, id string, scenario, dataset, estimator, report func(context.Context) error) error {
	seams := [...]struct {
		name string
		fn   func(context.Context) error
	}{{pipeline.Scenario, scenario}, {pipeline.Dataset, dataset}, {pipeline.Estimator, estimator}, {pipeline.Report, report}}
	for _, seam := range seams {
		if err := pipeline.Run(ctx, id+"/"+seam.name, seam.fn); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns all experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// RunOutcome is one experiment's result from a suite run.
type RunOutcome struct {
	Exp Experiment
	Res Renderable
	Err error
}

// RunAll runs the suite — every registered experiment, or cfg.Only — with
// the same seed and returns outcomes in ID order. The experiments are
// independent — each builds its own simulator world from the seed — so they
// fan out across cfg.Pool; every experiment derives its randomness from the
// seed alone, never from shared state, so each outcome is bit-identical to
// a sequential run. Unlike a sequential stop-at-first-failure loop, all
// experiments run even if one fails; callers decide how to report
// per-experiment errors (a failed experiment is an Err on its outcome, not
// an error from RunAll).
//
// Cancelling ctx stops scheduling further experiments: RunAll returns
// ctx.Err() alongside the outcome slice, in which outcomes that never ran
// report Completed() == false. cfg.Opts is ignored — suite runs use each
// experiment's registered defaults.
func RunAll(ctx context.Context, cfg Config) ([]RunOutcome, error) {
	exps := All()
	if len(cfg.Only) > 0 {
		picked := make([]Experiment, 0, len(cfg.Only))
		seen := make(map[string]bool, len(cfg.Only))
		for _, id := range cfg.Only {
			if seen[id] {
				continue
			}
			seen[id] = true
			e, err := Get(id)
			if err != nil {
				return nil, err
			}
			picked = append(picked, e)
		}
		sort.Slice(picked, func(i, j int) bool { return picked[i].ID < picked[j].ID })
		exps = picked
	}
	runCfg := Config{Seed: cfg.Seed, Pool: cfg.Pool, Artifacts: artifact.OrNew(cfg.Artifacts)}
	out, err := parallel.Map(ctx, cfg.Pool, len(exps), func(i int) (RunOutcome, error) {
		res, rerr := exps[i].Run(ctx, runCfg)
		return RunOutcome{Exp: exps[i], Res: res, Err: rerr}, nil
	})
	// Map's zero-valued slots (unscheduled after cancellation) would lose
	// the experiment identity; restore it so callers can report which
	// experiments never ran.
	for i := range out {
		if out[i].Exp.ID == "" {
			out[i].Exp = exps[i]
		}
	}
	return out, err
}

// table renders an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(t.header)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}
