package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/parallel"
)

// defaultSeed is the workload seed when -seed is not given; the sweep's
// report digest is pinned for it.
const defaultSeed = 1

// goldenSeed is the seed the program's suite goldens were produced at.
const goldenSeed = 42

// suiteWidth is the suite's fixed pool width: the box's two cores.
const suiteWidth = 2

// nominalSuitePass is a suite pass's length on the reference box (37–42 s
// at width 2), so a window of up to 79 s is one pass.
const nominalSuitePass = 40 * time.Second

// textGolden and jsonGolden are the pinned seed-42 suite outputs, relative
// to the checkout root.
var (
	textGolden = filepath.Join("internal", "experiments", "testdata", "all_seed42.golden.txt")
	jsonGolden = filepath.Join("internal", "experiments", "testdata", "all_seed42.golden.json")
)

// suiteWorkload is the `sisyphus -all` path: all registered experiments in
// order, at their registered defaults and the workload seed, over one
// memory artifact store and a fixed-width pool. One operation is one
// experiment; the fixed work of the window is whole suite passes, each on a
// fresh store.
//
// Why: most of its time is in the forced-contrast recomputes of
// netsim/bgp and netsim/engine (confounding, familyknob, instrument, power,
// chaos), so it is the workload a routing or engine change should move. It
// also exposes how the shared store behaves across a whole suite.
type suiteWorkload struct {
	cfg  config
	exps []experiments.Experiment
	// golden holds the text golden's per-experiment sections when the
	// workload seed is the golden seed, nil otherwise.
	golden map[string][]byte
}

func newSuite(cfg config) (*suiteWorkload, error) {
	w := &suiteWorkload{cfg: cfg, exps: experiments.All()}
	if cfg.seed == goldenSeed {
		var err error
		if w.golden, err = loadGolden(cfg.root, textGolden, w.exps); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// suiteRun is one set-up suite.
type suiteRun struct {
	w    *suiteWorkload
	tr   *tracer
	pool parallel.Pool
}

func (w *suiteWorkload) setUp(ctx context.Context, tr *tracer) (instance, error) {
	return &suiteRun{w: w, tr: tr, pool: parallel.NewPool(suiteWidth)}, nil
}

func (r *suiteRun) close() error { return nil }

// suitePass is one pass's outputs, kept for the checks after the clock
// stops.
type suitePass struct {
	text  map[string][]byte
	errs  map[string]error
	stats storeStats
	wall  time.Duration
}

func (r *suiteRun) run(ctx context.Context, d time.Duration) (*window, error) {
	tctx := r.tr.attach(ctx)
	var passes []suitePass
	expMs := map[string]float64{}
	m := startMeter()
	for i := 0; i < passesFor(d, nominalSuitePass); i++ {
		begin := time.Now()
		store := artifact.NewStore()
		p := suitePass{text: map[string][]byte{}, errs: map[string]error{}}
		cfg := experiments.Config{Seed: r.w.cfg.seed, Pool: r.pool, Artifacts: store}
		for _, e := range r.w.exps {
			start := time.Now()
			res, err := e.Run(tctx, cfg)
			if err != nil {
				p.errs[e.ID] = err
			} else {
				p.text[e.ID] = []byte(e.Header() + res.Render() + "\n")
			}
			expMs[e.ID] += float64(time.Since(start).Microseconds()) / 1000
		}
		p.wall = time.Since(begin)
		p.stats = statsOf(store)
		passes = append(passes, p)
	}
	win := &window{meter: m.stop()}
	win.busy = win.wall
	ops := len(passes) * len(r.w.exps)
	var walls []time.Duration
	for _, p := range passes {
		walls = append(walls, p.wall)
	}
	win.e2e, win.samples = batchFigures(ops, win.wall, walls)

	win.attempted = ops
	for _, p := range passes {
		win.failed += r.check(ctx, p)
		win.stores = append(win.stores, p.stats)
	}
	win.worlds = passes[0].stats.worlds
	if r.tr != nil {
		win.layers = map[string]float64{}
		for id, ms := range expMs {
			win.layers["exp."+id+".ms"] = ms / float64(len(passes))
		}
	}
	return win, nil
}

// crossChecked are the cheap experiments re-run without a store after the
// window: their output must equal the shared-store pass byte for byte, at
// any seed, which is the artifact layer's contract.
var crossChecked = []string{"mlab", "exposure", "rootcause"}

// check counts a pass's failed operations: an experiment that errored, one
// whose output differs from its golden section (at the golden seed), or
// one whose shared-store output differs from a store-less re-run.
func (r *suiteRun) check(ctx context.Context, p suitePass) int {
	failed := 0
	for _, e := range r.w.exps {
		if err := p.errs[e.ID]; err != nil {
			fmt.Fprintf(os.Stderr, "suite: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		if r.w.golden != nil && !bytes.Equal(p.text[e.ID], r.w.golden[e.ID]) {
			fmt.Fprintf(os.Stderr, "suite: %s: output differs from the seed-%d golden\n", e.ID, goldenSeed)
			failed++
			continue
		}
		if slices.Contains(crossChecked, e.ID) {
			res, err := e.Run(ctx, experiments.Config{Seed: r.w.cfg.seed, Pool: r.pool})
			if err != nil || !bytes.Equal(p.text[e.ID], []byte(e.Header()+res.Render()+"\n")) {
				fmt.Fprintf(os.Stderr, "suite: %s: shared-store output differs from a store-less run (err=%v)\n", e.ID, err)
				failed++
			}
		}
	}
	return failed
}

// loadGolden reads a suite golden and splits it per experiment.
func loadGolden(root, rel string, exps []experiments.Experiment) (map[string][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return nil, err
	}
	sections, err := splitGolden(raw, exps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	return sections, nil
}

// splitGolden cuts a suite output into per-experiment sections, each
// starting at its experiment's header and running to the next header. It
// fails unless every experiment has exactly one section, in order, and the
// sections tile the whole output.
func splitGolden(raw []byte, exps []experiments.Experiment) (map[string][]byte, error) {
	out := make(map[string][]byte, len(exps))
	pos := 0
	for i, e := range exps {
		h := []byte(e.Header())
		if !bytes.HasPrefix(raw[pos:], h) {
			return nil, fmt.Errorf("golden: section %d is not %q", i, strings.TrimSpace(e.Header()))
		}
		end := len(raw)
		if i+1 < len(exps) {
			next := bytes.Index(raw[pos+len(h):], []byte(exps[i+1].Header()))
			if next < 0 {
				return nil, fmt.Errorf("golden: no section for %s after %s", exps[i+1].ID, e.ID)
			}
			end = pos + len(h) + next
		}
		if bytes.Count(raw[pos:end], h) != 1 {
			return nil, fmt.Errorf("golden: %s has more than one section", e.ID)
		}
		out[e.ID] = raw[pos:end]
		pos = end
	}
	return out, nil
}
