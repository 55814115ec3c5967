// Command sisyphus-bench is the repository's benchmark. It runs one
// workload against the real code paths, checks the outputs, and prints
// every metric by name with its unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 15, "failed": 0, "metrics": {...}}
//
// Usage (from the root of a checkout; run.sh builds and execs this):
//
//	bash benchmark/run.sh --workload suite|sweep|serve --seed N --seconds S --trace 0|1
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// recorder attached. With -trace 1 the run repeats the untimed set-up and
// the window twice — once plain, once with an obs.Recorder attached — and
// reports the per-layer metrics of the traced pass plus the tracing
// overhead, and writes the span log under -out. Everything the benchmark
// knows about the program it learns from outside: its own clocks around
// public entry points, the spans and counters a public obs.Recorder
// collects, artifact.Store stats, and runtime/metrics.
//
// -table renders the "where the time goes" table from the result lines of
// traced runs (see WHERE_TIME_GOES.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"sisyphus/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    uint64
	seconds time.Duration
	// root is the checkout root: the goldens the checks compare against
	// live under it.
	root string
}

// workload is one set of inputs the benchmark runs. setUp builds, from
// nothing, the state a timed window needs, with the tracer's recorder
// attached wherever the program accepts one (tr is nil on an untraced
// pass).
type workload interface {
	setUp(ctx context.Context, tr *tracer) (instance, error)
}

// instance is one set-up workload, ready for its timed window.
type instance interface {
	// run executes the window's fixed work — for a batch workload the
	// whole passes a window of d holds (passesFor), for serve a schedule d
	// long — checks the outputs after the clock stops, and reports what it
	// did.
	run(ctx context.Context, d time.Duration) (*window, error)
	close() error
}

// window is what one timed window did.
type window struct {
	meter
	attempted, failed int
	// invalid, when set, says why the window must not be scored even
	// though every output checked out (a load generator that fell behind
	// its schedule measures itself, not the program).
	invalid string
	// busy is the time the program spent serving the window's work: the
	// wall for batch workloads, the summed client latency for serve. The
	// tracing overhead is traced busy over untraced busy.
	busy time.Duration
	// e2e holds the workload's end-to-end figures beyond set-up, CPU and
	// memory (throughput, latency percentiles).
	e2e map[string]metric
	// samples counts the samples behind each latency figure in e2e.
	samples map[string]int
	// layers holds per-layer figures only the workload can compute (its own
	// spans around entry points); set on traced windows only.
	layers map[string]float64
	// stores are the artifact stores the window used, for cache figures.
	stores []storeStats
	// worlds are the registered world ids the window touched, for the
	// direct bgp.Compute probe.
	worlds []string
	// spanFrom (span clock, ms) and counterBase exclude from a traced
	// window's figures what its recorder collected before the window (the
	// serve set-up's warm phase).
	spanFrom    float64
	counterBase map[string]float64
}

// setUpRuns is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up cannot move the figure.
const setUpRuns = 3

// initProbes is how many child processes measure process start-up.
const initProbes = 9

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; all inputs derive from it")
		seconds  = flag.Int("seconds", 20, "window length in seconds: serve's schedule; batch workloads run the whole passes it holds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		root     = flag.String("root", ".", "checkout root (the program's goldens are read from it)")
		out      = flag.String("out", ".bench_build/benchmark", "directory for span logs of traced runs")
		probe    = flag.Bool("probe-init", false, "exit as soon as the process has initialized (set-up timing)")
		table    = flag.Bool("table", false, "render the where-the-time-goes table from traced result files given as suite=FILE sweep=FILE serve=FILE")
		pinSweep = flag.Bool("print-sweep-digest", false, "with -workload sweep: print the report digest for -seed and exit")
	)
	flag.Parse()
	if *probe {
		return
	}
	if *table {
		if err := renderTable(os.Stdout, flag.Args()); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1 (got %d)", *seconds))
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: *root}
	w, err := newWorkload(*name, cfg)
	if err != nil {
		fail(err)
	}
	if *pinSweep {
		sw, ok := w.(*sweepWorkload)
		if !ok {
			fail(fmt.Errorf("-print-sweep-digest needs -workload sweep"))
		}
		d, err := sw.digestFor(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d %s\n", *seed, d)
		return
	}
	res, err := runWorkload(context.Background(), *name, w, cfg, *trace == 1, *out)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sisyphus-bench:", err)
	os.Exit(1)
}

// runWorkload sets the workload up setUpRuns times, runs the untraced
// window on the last set-up and, for a traced run, sets up once more with
// a recorder and runs the traced window.
func runWorkload(ctx context.Context, name string, w workload, cfg config, traced bool, outDir string) (*result, error) {
	initS, err := probeInit()
	if err != nil {
		return nil, err
	}
	var setUps []float64
	var inst instance
	for i := 0; i < setUpRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		// Each set-up and window starts from a collected heap, so neither
		// the peak resident set nor the window's GC work depends on when
		// the collector last ran over the benchmark's own leftovers.
		runtime.GC()
		start := time.Now()
		inst, err = w.setUp(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setUps = append(setUps, time.Since(start).Seconds())
	}
	runtime.GC()
	plain, err := inst.run(ctx, cfg.seconds)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed}
	report := map[string]metric{}
	if !traced {
		report["setup_s"] = metric{initS + median(setUps), "s"}
		report["cpu_s"] = metric{plain.cpu.Seconds(), "s"}
		report["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		for k, v := range plain.e2e {
			report[k] = v
		}
		printMetrics(name, report, plain.samples)
	} else {
		runtime.GC()
		tr := newTracer()
		tinst, err := w.setUp(ctx, tr)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		runtime.GC()
		tw, err := tinst.run(ctx, cfg.seconds)
		if cerr := tinst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		res.Attempted += tw.attempted
		res.Failed += tw.failed
		if tw.invalid != "" && plain.invalid == "" {
			plain.invalid = tw.invalid
		}
		layers, err := layerMetrics(ctx, tr, plain, tw)
		if err != nil {
			return nil, err
		}
		for _, d := range catalogue {
			report[d.name] = metric{layers[d.name], d.unit}
		}
		printMetrics(name, report, nil)
		path, err := writeSpans(outDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed), tr.rec)
		if err != nil {
			return nil, err
		}
		fmt.Printf("span log: %s\n", path)
	}
	if plain.invalid != "" {
		fmt.Fprintf(os.Stderr, "sisyphus-bench: run invalid, not scored: %s\n", plain.invalid)
	}
	res.Correct = res.Failed == 0 && plain.invalid == ""
	res.Metrics = report
	return res, nil
}

// probeInit starts this binary initProbes times in a mode that exits as
// soon as main runs and returns the median wall time of one start: exec,
// the Go runtime and every package initializer of the program, which is
// where work moved into process start-up would show. The children run one
// at a time and each is waited for.
func probeInit() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < initProbes; i++ {
		cmd := exec.Command(self, "-probe-init")
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// meter is the resource accounting of one timed window.
type meter struct {
	wall, cpu  time.Duration
	gcCycles   float64
	gcCPU      float64 // seconds
	allocBytes float64
}

type meterStart struct {
	wall    time.Time
	cpu     time.Duration
	runtime []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startMeter() meterStart {
	return meterStart{wall: time.Now(), cpu: processCPU(), runtime: readRuntime()}
}

func (m meterStart) stop() meter {
	wall := time.Since(m.wall)
	cpu := processCPU() - m.cpu
	end := readRuntime()
	delta := func(i int) float64 { return runtimeValue(end[i]) - runtimeValue(m.runtime[i]) }
	return meter{wall: wall, cpu: cpu, gcCycles: delta(0), gcCPU: delta(1), allocBytes: delta(2)}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// passesFor is how many passes of a batch workload's fixed work a window
// of d holds, given the pass's nominal length on a two-core reference box.
// The count depends on d alone, never on how fast this run goes, so every
// run of a workload does the same work and cpu_s compares across runs.
func passesFor(d, nominal time.Duration) int {
	return max(1, int(d/nominal))
}

// batchFigures are a batch workload's end-to-end figures. Throughput is
// operations (experiments, grid cells) per second over the window's whole
// passes of fixed work. Operations differ in cost by three orders of
// magnitude, so no per-operation latency is reported; since every workload
// must report every end-to-end metric, for a batch workload one request is
// one pass — what a user of `sisyphus -all` or `-sweep` waits for — and
// latency_p50_ms is the median pass turnaround. A p99 would need 1,000
// passes beyond its rank's ten; no run has them, so latency_p99_ms is the
// slowest pass, and both print with their sample count.
func batchFigures(ops int, wall time.Duration, passes []time.Duration) (map[string]metric, map[string]int) {
	var ms []float64
	slowest := 0.0
	for _, p := range passes {
		v := float64(p) / float64(time.Millisecond)
		ms = append(ms, v)
		slowest = math.Max(slowest, v)
	}
	return map[string]metric{
			"throughput_per_s": {float64(ops) / wall.Seconds(), "1/s"},
			"latency_p50_ms":   {median(ms), "ms"},
			"latency_p99_ms":   {slowest, "ms"},
		}, map[string]int{
			"throughput_per_s": ops,
			"latency_p50_ms":   len(ms),
			"latency_p99_ms":   len(ms),
		}
}

// printMetrics writes one human-readable line per metric, each latency
// with the sample count behind it.
func printMetrics(name string, m map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("%s %-34s %14.6g %s", name, k, m[k].Value, m[k].Unit)
		if n, ok := samples[k]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
}

// writeSpans writes the recorder's span log as JSONL under dir.
func writeSpans(dir, file string, rec *obs.Recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
