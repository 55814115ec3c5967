package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/parallel"
	"sisyphus/internal/sweep"
)

// sweepWorkload is sweep.Run over six scenario-capable experiments × the
// South Africa world and one generated internet × sweepSeeds seeds drawn
// from the workload seed, every cell sharing one memory store. One
// operation is one grid cell; the fixed work of the window is whole grids,
// each on a fresh store.
//
// Why: it is heavy on artifact sharing (a seed column shares one world and
// RIB build), platform campaigns and causal/synthetic placebo fits, and it
// bypasses most of the forced-contrast routing path — the workload on which
// a routing optimisation should change nothing.
type sweepWorkload struct {
	cfg  config
	grid sweep.GridConfig
	// digest is the pinned report digest for the workload seed, "" when
	// none is pinned.
	digest string
}

var sweepExperiments = []string{"table1", "did", "exposure", "rootcause", "mlab", "counterfactual"}

// genWorld is the generated internet the sweep and serve's cold table1
// requests run on: one that casts every feature the six sweep experiments
// need, so no cell refuses.
const genWorld = "gen:access=10+treated=2+seed=3"

// sweepSeeds is the grid's seed count: 6 × 2 × 6 = 72 cells.
const sweepSeeds = 6

// sweepWidth is the sweep's fixed pool width.
const sweepWidth = 2

// nominalGrid is one grid's length on the reference box (9.3–11.6 s at
// width 2), so a 20 s window is two grids.
const nominalGrid = 10 * time.Second

// sweepDigests pins the report digest (sha256 of the CLI's JSON rendering)
// per workload seed; print one with -print-sweep-digest.
//
//go:embed sweep_digests.json
var sweepDigests []byte

func newSweep(cfg config) (*sweepWorkload, error) {
	gen, err := scenario.ResolveID(genWorld)
	if err != nil {
		return nil, err
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(sweepDigests, &pinned); err != nil {
		return nil, fmt.Errorf("sweep_digests.json: %w", err)
	}
	return &sweepWorkload{
		cfg: cfg,
		grid: sweep.GridConfig{
			Experiments: sweepExperiments,
			Scenarios:   []string{scenario.SouthAfricaID, gen},
			Seeds:       drawSeeds(cfg.seed^0x5eed5eed, sweepSeeds, nil),
		},
		digest: pinned[strconv.FormatUint(cfg.seed, 10)],
	}, nil
}

type sweepRun struct {
	w    *sweepWorkload
	tr   *tracer
	grid sweep.GridConfig
}

func (w *sweepWorkload) setUp(ctx context.Context, tr *tracer) (instance, error) {
	g := w.grid
	g.Pool = parallel.NewPool(sweepWidth)
	return &sweepRun{w: w, tr: tr, grid: g}, nil
}

func (r *sweepRun) close() error { return nil }

// gridRun is one grid's outputs, kept for the checks after the clock stops.
type gridRun struct {
	report     *sweep.Report
	digest     string
	err        error
	stats      storeStats
	start, end time.Time
}

func (r *sweepRun) run(ctx context.Context, d time.Duration) (*window, error) {
	tctx := r.tr.attach(ctx)
	var grids []gridRun
	// Only the last grid's store stays referenced (for the cross-check), so
	// peak memory is one grid's however many grids the window holds.
	var store *artifact.Store
	m := startMeter()
	for i := 0; i < passesFor(d, nominalGrid); i++ {
		store = artifact.NewStore()
		g := gridRun{start: time.Now()}
		cfg := r.grid
		cfg.Artifacts = store
		g.report, g.err = sweep.Run(tctx, cfg)
		if g.err == nil {
			g.digest, g.err = reportDigest(g.report)
		}
		g.end = time.Now()
		g.stats = statsOf(store)
		grids = append(grids, g)
	}
	win := &window{meter: m.stop()}
	win.busy = win.wall
	cells := len(r.grid.Experiments) * len(r.grid.Scenarios) * len(r.grid.Seeds)
	ops := len(grids) * cells
	var walls []time.Duration
	for _, g := range grids {
		walls = append(walls, g.end.Sub(g.start))
	}
	win.e2e, win.samples = batchFigures(ops, win.wall, walls)
	win.attempted = ops
	var failedCells int
	for _, g := range grids {
		win.stores = append(win.stores, g.stats)
		switch {
		case g.err != nil:
			fmt.Fprintf(os.Stderr, "sweep: %v\n", g.err)
			win.failed += cells
		case r.w.digest != "" && g.digest != r.w.digest:
			fmt.Fprintf(os.Stderr, "sweep: report digest %s, pinned %s\n", g.digest, r.w.digest)
			win.failed += cells
		default:
			for _, f := range g.report.Failures {
				fmt.Fprintf(os.Stderr, "sweep: cell %s/%s/%d failed: %s\n", f.Experiment, f.Scenario, f.Seed, f.Err)
			}
			failedCells += len(g.report.Failures)
			win.failed += len(g.report.Failures)
		}
	}
	win.failed += r.crossCheck(ctx, store)
	win.worlds = grids[0].stats.worlds
	if r.tr != nil {
		var selfMs float64
		for _, g := range grids {
			selfMs += r.tr.selfOf(g.start, g.end, isStageSpan)
		}
		n := float64(len(grids))
		win.layers = map[string]float64{
			"sweep.cells":        float64(cells),
			"sweep.failed_cells": float64(failedCells) / n,
			"sweep.self.ms":      selfMs / n,
		}
	}
	return win, nil
}

// crossCheck re-runs two cells, chosen from the seed, once through the
// grid's now-warm store and once with no store: the two must produce the
// same samples, which is the artifact layer's fork contract.
func (r *sweepRun) crossCheck(ctx context.Context, store *artifact.Store) int {
	failed := 0
	g := r.grid
	for _, k := range drawSeeds(r.w.cfg.seed^0xc4ec4, 2, nil) {
		id := g.Experiments[k%uint64(len(g.Experiments))]
		sc := g.Scenarios[(k/7)%uint64(len(g.Scenarios))]
		seed := g.Seeds[(k/11)%uint64(len(g.Seeds))]
		e, err := experiments.Get(id)
		if err != nil {
			return failed + 1
		}
		opts, err := e.OptionsForScenario(sc)
		if err != nil {
			return failed + 1
		}
		var docs [2][]byte
		for i, st := range []*artifact.Store{store, nil} {
			res, err := e.Run(ctx, experiments.Config{Seed: seed, Pool: g.Pool, Artifacts: st, Opts: opts})
			if err == nil {
				if s, ok := res.(experiments.Sampler); ok {
					docs[i], err = json.Marshal(s.Samples())
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: cross-check %s/%s/%d: %v\n", id, sc, seed, err)
			}
		}
		if docs[0] == nil || !bytes.Equal(docs[0], docs[1]) {
			fmt.Fprintf(os.Stderr, "sweep: cross-check %s/%s/%d: cached and store-less samples differ\n", id, sc, seed)
			failed++
		}
	}
	return failed
}

// digestFor runs one grid and returns its report digest, for pinning.
func (w *sweepWorkload) digestFor(ctx context.Context) (string, error) {
	g := w.grid
	g.Pool = parallel.NewPool(sweepWidth)
	g.Artifacts = artifact.NewStore()
	rep, err := sweep.Run(ctx, g)
	if err != nil {
		return "", err
	}
	if len(rep.Failures) > 0 {
		return "", fmt.Errorf("%d failed cells; refusing to pin", len(rep.Failures))
	}
	return reportDigest(rep)
}

// reportDigest hashes the report exactly as `sisyphus -sweep -json` prints
// it.
func reportDigest(rep *sweep.Report) (string, error) {
	doc, err := cliJSON(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// cliJSON encodes v as the CLI's -json mode and the server do: two-space
// indent and a trailing newline.
func cliJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// drawSeeds derives n distinct seeds in [1, 1e6] from root by splitmix64,
// skipping any in avoid.
func drawSeeds(root uint64, n int, avoid map[uint64]bool) []uint64 {
	out := make([]uint64, 0, n)
	seen := map[uint64]bool{}
	x := root
	for len(out) < n {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s := z%1_000_000 + 1
		if seen[s] || avoid[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
