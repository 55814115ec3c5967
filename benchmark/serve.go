package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/serve"
)

// serveWorkload drives the real serve.Server handler over loopback HTTP as
// an open loop: every request has a due time fixed in advance from the
// workload seed, is sent at that time whatever the server is doing, and is
// timed from when it was due. The stream is mostly warm response-cache hits
// on keys the set-up built sequentially (JSON and text experiment documents
// at seed 42, plus a seed-42 /query); a fixed share is cold (fresh seeds on
// cheap experiments, rootcause at fresh seeds, /query at fresh seeds, and
// table1 on a generated world) and a fixed share are /query documents that
// must be refused with 400 or 422.
//
// Why: it is the only workload that uses the HTTP layer and the response
// cache, and it uses the artifact layer differently from the batch
// workloads — hits served alongside concurrent builds — so a store change
// that helps the sweep but costs the daemon shows here. At a fixed rate
// throughput cannot move, so capacity shows as latency and cpu_s.
//
// Load sizing for a two-core box: the server's pool is one worker wide, and
// the generator uses two connections — one lane for warm hits and refused
// queries, one for cold requests — so a cold build never holds up a warm
// hit's connection. Cold requests get slots sized well above their build
// time, so they do not queue behind each other at the parent's speed.
type serveWorkload struct {
	cfg     config
	warm    []request
	sched   schedule
	expects map[string][]byte
}

// serveRate is the offered load in requests per second; at the default
// window it gives well over the 1,000 requests a p99 needs.
const serveRate = 110

// serveWidth is the server pool's fixed width.
const serveWidth = 1

// maxLagShare bounds the generator's own lateness: a run is reported
// invalid when its median send lag exceeds this share of the median
// latency, or when lag makes up more than this share of the summed latency
// of the requests at or above the p99 — past that, the figure would be
// measuring the generator, as a plain sleep-until-due loop does (Go timers
// fire up to a millisecond late; a warm hit takes a tenth of that). The
// tail is judged on its own samples because the lag's tail is on the warm
// lane (the process's own CPU contention: generator and server share two
// cores and the garbage collector) while the p99 is a cold build.
const maxLagShare = 0.1

// spinWindow is how early the generator wakes before a due time; it waits
// out the rest by spinning, because Go's timers fire late: about 0.2 ms on
// an idle two-core Linux box, up to a millisecond or more while the server
// is building. A 0.5 ms window left the median send lag at 0.01–0.05 ms
// and moved the warm-hit median with it; at 1.5 ms the median lag is under
// a microsecond. The spin's CPU is in cpu_s, a steady ~1.3 ms a request.
const spinWindow = 1500 * time.Microsecond

var (
	warmExperiments  = []string{"mlab", "collider", "intent", "exposure", "rootcause", "counterfactual"}
	cheapExperiments = []string{"mlab", "collider", "intent", "exposure"}
	// tailExperiment is the cold class the p99 falls inside: the mix puts
	// fewer than 1% of requests above it and more than 1% in it.
	tailExperiment = "rootcause"
)

// Request classes.
const (
	classWarm    = "warm"
	classRefused = "refused"
	classCheap   = "cold-cheap"
	classTail    = "cold-tail"
	classHeavy   = "cold-heavy"
)

// request is one HTTP request the generator sends.
type request struct {
	class, route string
	method, path string
	accept, body string
	// want is the status the response must carry.
	want int
	// key names the warm document whose bytes the response must equal;
	// empty for cold requests (well-formed JSON) and refused ones.
	key string
	// slot is how long the cold lane keeps clear after this request.
	slot time.Duration
	// seed is a tail-class request's fresh seed, for the cross-check.
	seed uint64
}

// scheduled is a request with its due time, as an offset from the start of
// the window.
type scheduled struct {
	due time.Duration
	req request
}

// schedule is the window's two lanes.
type schedule struct {
	warm, cold []scheduled
}

func (s schedule) size() int { return len(s.warm) + len(s.cold) }

func newServe(cfg config) (*serveWorkload, error) {
	w := &serveWorkload{cfg: cfg}
	exps := experiments.All()
	jsonDocs, err := loadGolden(cfg.root, jsonGolden, exps)
	if err != nil {
		return nil, err
	}
	textDocs, err := loadGolden(cfg.root, textGolden, exps)
	if err != nil {
		return nil, err
	}
	w.expects = map[string][]byte{}
	for _, id := range warmExperiments {
		e, err := experiments.Get(id)
		if err != nil {
			return nil, err
		}
		hdr := len(e.Header())
		w.expects["json/"+id] = jsonDocs[id][hdr:]
		w.expects["text/"+id] = textDocs[id][hdr:]
		w.warm = append(w.warm,
			request{class: classWarm, route: "experiment", method: http.MethodGet,
				path: "/experiment/" + id + "?seed=42", want: 200, key: "json/" + id},
			request{class: classWarm, route: "experiment", method: http.MethodGet,
				path: "/experiment/" + id + "?seed=42", accept: "text/plain", want: 200, key: "text/" + id})
	}
	w.warm = append(w.warm, request{class: classWarm, route: "query", method: http.MethodPost,
		path: "/query", body: queryBody(goldenSeed), want: 200, key: "query/42"})
	w.sched = buildSchedule(cfg.seed, cfg.seconds, w.warm)
	return w, nil
}

func queryBody(seed uint64) string {
	return fmt.Sprintf(`{"treatment":"R","outcome":"L","hours":100,"seed":%d}`, seed)
}

// refusedQueries are /query documents the server must refuse, with the
// status each must get: malformed questions are 400, well-formed but
// unanswerable ones 422.
var refusedQueries = []struct {
	body string
	want int
}{
	{`{"graph":"X -> Y","treatment":"X","outcome":"Y","seed":%d}`, http.StatusBadRequest},
	{`{"graph":"C -> ","treatment":"R","outcome":"L","seed":%d}`, http.StatusBadRequest},
	{`{"treatment":"R","outcome":"L","hours":5,"seed":%d}`, http.StatusBadRequest},
	{`{"graph":"U [latent]; U -> R; U -> L; R -> L","treatment":"R","outcome":"L","seed":%d}`, http.StatusUnprocessableEntity},
}

// Cold-lane slot lengths, several times each class's build time on the
// parent so cold requests do not queue behind one another.
const (
	slotHeavyQuery  = 2000 * time.Millisecond
	slotHeavyTable1 = 800 * time.Millisecond
	slotTail        = 150 * time.Millisecond
	slotCheap       = 60 * time.Millisecond
)

// Heavy cold requests per window: they sit above the p99, so their count
// stays below the 1% of requests beyond it. Each table1 build on the
// generated world raises the resident set by several MB for a moment; with
// two of them the peak fell in one of two modes 6 MB apart run to run,
// while four reach the upper one every time.
const (
	heavyQueries = 2
	heavyTable1  = 4
)

// buildSchedule lays out the window's requests from the seed alone. The
// class counts are fixed shares of the request count (rate × window): 1.5%
// tail-class cold, 1.5% cheap cold, 1% refused, plus the heavy requests;
// the rest are warm hits. Warm-lane due times are
// uniform over the window (a Poisson stream conditioned on its count); the
// cold lane takes its requests in a seeded order, each in its own slot.
// Fresh seeds never repeat within a schedule and never equal the warm
// seed, so every cold request is a real build.
func buildSchedule(seed uint64, window time.Duration, warm []request) schedule {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(math.Round(serveRate * window.Seconds()))
	tail := int(math.Round(0.015 * float64(n)))
	cheap := tail
	refused := int(math.Round(0.01 * float64(n)))
	fresh := drawSeeds(seed^0xc01d, tail+cheap+heavyQueries+heavyTable1, map[uint64]bool{goldenSeed: true})
	next := func() uint64 { s := fresh[0]; fresh = fresh[1:]; return s }

	var cold []request
	expPath := func(id string, s uint64) string {
		return "/experiment/" + id + "?" + url.Values{"seed": {fmt.Sprint(s)}}.Encode()
	}
	for i := 0; i < heavyQueries; i++ {
		cold = append(cold, request{class: classHeavy, route: "query", method: http.MethodPost,
			path: "/query", body: queryBody(next()), want: 200, slot: slotHeavyQuery})
	}
	for i := 0; i < heavyTable1; i++ {
		cold = append(cold, request{class: classHeavy, route: "experiment", method: http.MethodGet,
			path: "/experiment/table1?" + url.Values{"seed": {fmt.Sprint(next())}, "scenario": {genWorld}}.Encode(),
			want: 200, slot: slotHeavyTable1})
	}
	for i := 0; i < tail; i++ {
		s := next()
		cold = append(cold, request{class: classTail, route: "experiment", method: http.MethodGet,
			path: expPath(tailExperiment, s), want: 200, slot: slotTail, seed: s})
	}
	for i := 0; i < cheap; i++ {
		id := cheapExperiments[rng.Intn(len(cheapExperiments))]
		cold = append(cold, request{class: classCheap, route: "experiment", method: http.MethodGet,
			path: expPath(id, next()), want: 200, slot: slotCheap})
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })

	// Cold slots tile the window; what the slots leave over is spread
	// evenly between them. If the slots overfill the window they shrink
	// in proportion, and cold requests may then queue — which the open
	// loop measures.
	const lead = 200 * time.Millisecond
	var total time.Duration
	for _, r := range cold {
		total += r.slot
	}
	span := window - lead
	scale, gap := 1.0, (span-total)/time.Duration(len(cold))
	if total > span {
		scale, gap = float64(span)/float64(total), 0
	}
	var s schedule
	at := lead
	for _, r := range cold {
		s.cold = append(s.cold, scheduled{due: at, req: r})
		at += time.Duration(float64(r.slot)*scale) + gap
	}

	var warmLane []request
	for i := 0; i < refused; i++ {
		q := refusedQueries[i%len(refusedQueries)]
		warmLane = append(warmLane, request{class: classRefused, route: "query", method: http.MethodPost,
			path: "/query", body: fmt.Sprintf(q.body, rng.Intn(1_000_000)), want: q.want})
	}
	for len(warmLane) < n-len(cold) {
		warmLane = append(warmLane, warm[rng.Intn(len(warm))])
	}
	rng.Shuffle(len(warmLane), func(i, j int) { warmLane[i], warmLane[j] = warmLane[j], warmLane[i] })
	dues := make([]time.Duration, len(warmLane))
	for i := range dues {
		dues[i] = lead/2 + time.Duration(rng.Int63n(int64(window-lead/2)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for i, r := range warmLane {
		s.warm = append(s.warm, scheduled{due: dues[i], req: r})
	}
	return s
}

// serveRun is one set-up server: store, handler on a loopback listener,
// and one client per lane.
type serveRun struct {
	w       *serveWorkload
	tr      *tracer
	store   *artifact.Store
	srv     *http.Server
	served  chan error
	base    string
	lanes   [2]*http.Client
	expects map[string][]byte
}

func (w *serveWorkload) setUp(ctx context.Context, tr *tracer) (instance, error) {
	store := artifact.NewStore()
	handler := serve.New(serve.Config{Store: store, Pool: parallel.NewPool(serveWidth), Recorder: tr.recorder()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRun{
		w: w, tr: tr, store: store,
		srv:     &http.Server{Handler: handler.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		expects: map[string][]byte{},
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	for i := range r.lanes {
		r.lanes[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	// The warm phase: every warm key once, in order, on the warm lane.
	for _, req := range w.warm {
		status, body, err := r.do(ctx, r.lanes[0], req)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm %s %s: %w", req.method, req.path, err)
		}
		if status != req.want {
			r.close()
			return nil, fmt.Errorf("warm %s %s: status %d: %s", req.method, req.path, status, body)
		}
		if want, ok := w.expects[req.key]; ok {
			r.expects[req.key] = want
		} else {
			r.expects[req.key] = body
		}
	}
	return r, nil
}

func (r *serveRun) close() error {
	for _, c := range r.lanes {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// do sends one request and reads the whole response.
func (r *serveRun) do(ctx context.Context, c *http.Client, req request) (int, []byte, error) {
	var body io.Reader
	if req.body != "" {
		body = bytes.NewReader([]byte(req.body))
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, r.base+req.path, body)
	if err != nil {
		return 0, nil, err
	}
	if req.accept != "" {
		hr.Header.Set("Accept", req.accept)
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sent is what happened to one scheduled request.
type sent struct {
	due, send, end time.Time
	// lag is the generator's own lateness: how long after the request
	// could first go out (its due time, or the lane's previous response if
	// that came later) it actually went.
	lag    time.Duration
	status int
	body   []byte
	err    error
}

func (s sent) latency() time.Duration { return s.end.Sub(s.due) }

// runLane sends a lane's requests at their due times, one at a time on the
// lane's connection. A request due while the previous one is still
// outstanding goes as soon as it returns, and its latency still counts from
// its due time.
func runLane(ctx context.Context, t0 time.Time, lane []scheduled, send func(request) (int, []byte, error)) []sent {
	out := make([]sent, len(lane))
	free := t0
	for i, s := range lane {
		due := t0.Add(s.due)
		waitUntil(due)
		start := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		status, body, err := send(s.req)
		end := time.Now()
		out[i] = sent{due: due, send: start, end: end, lag: start.Sub(ready), status: status, body: body, err: err}
		free = end
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// waitUntil sleeps until shortly before t, then spins until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

func (r *serveRun) run(ctx context.Context, d time.Duration) (*window, error) {
	sched := r.w.sched
	before := statsOf(r.store)
	var counterBase map[string]float64
	if r.tr != nil {
		counterBase = counterTotals(r.tr.rec.Metrics())
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	m := startMeter()
	var results [2][]sent
	done := make(chan struct{})
	go func() {
		defer close(done)
		results[1] = runLane(ctx, t0, sched.cold, func(q request) (int, []byte, error) { return r.do(ctx, r.lanes[1], q) })
	}()
	results[0] = runLane(ctx, t0, sched.warm, func(q request) (int, []byte, error) { return r.do(ctx, r.lanes[0], q) })
	<-done
	win := &window{meter: m.stop()}

	var lat, lags []float64
	byClass := map[string][]float64{}
	for l, lane := range [][]scheduled{sched.warm, sched.cold} {
		for i, s := range results[l] {
			win.attempted++
			ms := float64(s.latency()) / float64(time.Millisecond)
			if !r.check(lane[i].req, s) {
				win.failed++
				ms = math.Inf(1) // a failed request misses every latency limit
			}
			lat = append(lat, ms)
			byClass[lane[i].req.class] = append(byClass[lane[i].req.class], ms)
			lags = append(lags, float64(s.lag)/float64(time.Millisecond))
			win.busy += s.end.Sub(s.send)
		}
	}
	for _, c := range []string{classWarm, classRefused, classCheap, classTail, classHeavy} {
		xs := byClass[c]
		sort.Float64s(xs)
		if len(xs) > 0 {
			fmt.Printf("serve: class %-10s n=%-5d median %9.4f ms  max %9.4f ms\n", c, len(xs), median(xs), xs[len(xs)-1])
		}
	}
	win.failed += r.crossCheck(ctx, sched.cold, results[1])
	p50 := median(lat)
	p99, err := quantile(lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("serve: latency_p99_ms: %w", err)
	}
	win.e2e = map[string]metric{
		"latency_p50_ms": {p50, "ms"},
		"latency_p99_ms": {p99, "ms"},
		// At a fixed offered rate this can only fall, when requests fail.
		"throughput_per_s": {float64(win.attempted-win.failed) / win.wall.Seconds(), "1/s"},
	}
	win.samples = map[string]int{"latency_p50_ms": len(lat), "latency_p99_ms": len(lat)}
	lag99, err := quantile(lags, 0.99)
	if err != nil {
		return nil, fmt.Errorf("serve: send lag: %w", err)
	}
	lag50 := median(lags)
	var tailLat, tailLag float64
	for i, v := range lat {
		if v >= p99 && !math.IsInf(v, 1) {
			tailLat += v
			tailLag += lags[i]
		}
	}
	fmt.Printf("serve: %d requests (%d warm lane, %d cold lane); send lag p50 %.4f ms, p99 %.4f ms (n=%d); %.2f%% of the p99 tail's latency\n",
		len(lat), len(results[0]), len(results[1]), lag50, lag99, len(lags), 100*tailLag/tailLat)
	if lag50 > maxLagShare*p50 || tailLag > maxLagShare*tailLat {
		win.invalid = fmt.Sprintf("generator send lag exceeds %.0f%% of the latency it qualifies (p50 lag %.4f ms of %.4f ms; %.1f of %.1f ms summed over the p99 tail)",
			100*maxLagShare, lag50, p50, tailLag, tailLat)
	}

	after := statsOf(r.store)
	delta := after
	delta.Hits -= before.Hits
	delta.Misses -= before.Misses
	delta.Builds -= before.Builds
	delta.Evictions -= before.Evictions
	win.stores = []storeStats{delta}
	win.worlds = after.worlds
	if r.tr != nil {
		win.spanFrom = r.tr.ms(t0)
		win.counterBase = counterBase
		win.layers = r.layers(win.spanFrom, results, sched, lag99, float64(delta.Builds))
	}
	return win, nil
}

// check reports whether a response is what its request must get.
func (r *serveRun) check(q request, s sent) bool {
	switch {
	case s.err != nil:
		fmt.Fprintf(os.Stderr, "serve: %s %s: %v\n", q.method, q.path, s.err)
		return false
	case s.status != q.want:
		fmt.Fprintf(os.Stderr, "serve: %s %s: status %d, want %d\n", q.method, q.path, s.status, q.want)
		return false
	case q.key != "":
		if !bytes.Equal(s.body, r.expects[q.key]) {
			fmt.Fprintf(os.Stderr, "serve: %s %s: body differs from %s\n", q.method, q.path, q.key)
			return false
		}
	case q.want == http.StatusOK && !json.Valid(s.body):
		fmt.Fprintf(os.Stderr, "serve: %s %s: body is not well-formed JSON\n", q.method, q.path)
		return false
	}
	return true
}

// crossCheck recomputes the first two tail-class cold documents without a
// store, encoded as the CLI's -json does, and compares them with what was
// served: a cold response must be the experiment's own bytes, not merely
// well-formed.
func (r *serveRun) crossCheck(ctx context.Context, cold []scheduled, got []sent) int {
	e, err := experiments.Get(tailExperiment)
	if err != nil {
		return 1
	}
	failed, checked := 0, 0
	for i, s := range cold {
		if s.req.class != classTail || i >= len(got) || checked == 2 {
			continue
		}
		checked++
		res, err := e.Run(ctx, experiments.Config{Seed: s.req.seed, Pool: parallel.NewPool(serveWidth)})
		var want []byte
		if err == nil {
			want, err = cliJSON(res)
		}
		if err == nil && !bytes.Equal(want, got[i].body) {
			err = errors.New("served bytes differ from a store-less run")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: cross-check %s: %v\n", s.req.path, err)
			failed++
		}
	}
	return failed
}

// layers computes the serve-only per-layer figures of a traced window.
func (r *serveRun) layers(from float64, results [2][]sent, sched schedule, lag99, builds float64) map[string]float64 {
	out := map[string]float64{"send_lag.p99_ms": lag99, "serve.builds": builds}
	var spans []obs.Span
	byRoute := map[string][]float64{}
	for _, sp := range r.tr.rec.Spans() {
		if sp.StartMs < from {
			continue // the warm phase
		}
		if sp.Name == "http/experiment" || sp.Name == "http/query" {
			spans = append(spans, sp)
			byRoute[sp.Name] = append(byRoute[sp.Name], sp.DurMs)
		}
	}
	put := func(name string, xs []float64, q float64) {
		v, err := quantile(xs, q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sisyphus-bench: %s not measured: %v\n", name, err)
			return
		}
		out[name] = v
	}
	put("http.experiment.p50_ms", byRoute["http/experiment"], 0.5)
	put("http.experiment.p99_ms", byRoute["http/experiment"], 0.99)
	put("http.query.p50_ms", byRoute["http/query"], 0.5)
	put("http.query.p90_ms", byRoute["http/query"], 0.9)

	var reqs []clientRequest
	for l, lane := range [][]scheduled{sched.warm, sched.cold} {
		for i, s := range results[l] {
			reqs = append(reqs, clientRequest{
				route: "http/" + lane[i].req.route,
				iv:    interval{r.tr.ms(s.send), r.tr.ms(s.end)},
			})
		}
	}
	overheads := httpOverheads(reqs, spans)
	put("http.overhead.p50_ms", overheads, 0.5)
	return out
}

// clientRequest is one request as the client saw it, on the span clock.
type clientRequest struct {
	route string
	iv    interval
}

// httpOverheads matches each client request to the server's route span it
// caused and returns client latency minus server span per matched request.
// Spans carry no request id: a request's span is one of its route whose
// interval lies inside the request's, and since two lanes overlap in time,
// requests are matched shortest first, each taking the longest unclaimed
// span that fits — a warm request's interval holds only its own span, and a
// cold one's holds its own plus the warm spans it overlapped, which are
// claimed already.
func httpOverheads(reqs []clientRequest, spans []obs.Span) []float64 {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].iv.dur() < reqs[order[b]].iv.dur() })
	sort.Slice(spans, func(a, b int) bool { return spans[a].StartMs < spans[b].StartMs })
	claimed := make([]bool, len(spans))
	var out []float64
	for _, i := range order {
		q := reqs[i]
		// The first span starting at or after the request was sent.
		lo := sort.Search(len(spans), func(j int) bool { return spans[j].StartMs >= q.iv.start })
		best := -1
		for j := lo; j < len(spans) && spans[j].StartMs <= q.iv.end; j++ {
			sp := spans[j]
			if claimed[j] || sp.Name != q.route || spanInterval(sp).end > q.iv.end {
				continue
			}
			if best < 0 || sp.DurMs > spans[best].DurMs {
				best = j
			}
		}
		if best >= 0 {
			claimed[best] = true
			out = append(out, q.iv.dur()-spans[best].DurMs)
		}
	}
	return out
}
