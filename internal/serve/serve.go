// Package serve implements the sisyphusd HTTP API: canned experiments as
// per-experiment JSON documents and declarative causal questions compiled
// through dag identification, all over one shared artifact store.
//
// The serving contract is the CLI's, verbatim: a GET /experiment response
// body is byte-identical to what `sisyphus -experiment <id> -seed N -json`
// writes for that experiment, because both run the same registered
// experiment and the same encoder. Requests share one artifact.Store, so
// identical concurrent requests collapse into one build (singleflight at
// both the response layer and every artifact underneath), per-request
// timeouts and client disconnects cancel through the pipeline's context
// seams, and the optional obs recorder hangs request counters, in-flight
// gauges and latency spans off every route at zero cost when absent.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// Artifact kinds the server introduces. A "response" is the encoded JSON
// document for one GET /experiment request; a "queryresp" the same for one
// normalized POST /query.
const (
	kindResponse      = "response"
	kindResponseText  = "responsetext"
	kindQueryResponse = "queryresp"
)

// MaxWorkers bounds the per-request ?workers= override; wider requests are
// rejected rather than letting one caller fork an arbitrary number of OS
// threads.
const MaxWorkers = 64

// Config configures a Server. The zero value serves from a fresh artifact
// store with the default pool, no timeout and no recorder.
type Config struct {
	// Store is the artifact store every request shares; nil is a fresh one
	// for the server's lifetime.
	Store *artifact.Store
	// Pool is the default worker pool for requests that don't override
	// width with ?workers=.
	Pool parallel.Pool
	// RequestTimeout bounds each request's context; 0 means no limit
	// beyond client disconnect.
	RequestTimeout time.Duration
	// Recorder, when non-nil, receives per-route counters, in-flight
	// gauges and latency spans, and backs the admin /metrics and /trace
	// endpoints. Nil is the zero-cost off switch.
	Recorder *obs.Recorder
}

// Server serves the sisyphusd API. Construct with New; safe for concurrent
// use.
type Server struct {
	cfg      Config
	inflight atomic.Int64
}

// New returns a Server over cfg.
func New(cfg Config) *Server {
	cfg.Store = artifact.OrNew(cfg.Store)
	return &Server{cfg: cfg}
}

// Handler returns the API mux:
//
//	GET  /experiments                  registered experiments (id, paper)
//	GET  /experiment/{id}?seed=N&scenario=S&opts=J&workers=W
//	POST /query                        declarative causal question
//	GET  /healthz
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.instrument("experiments", s.handleList))
	mux.HandleFunc("GET /experiment/{id}", s.instrument("experiment", s.handleExperiment))
	mux.HandleFunc("POST /query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// AdminHandler returns the admin mux: /metrics (recorder counters plus
// cache stats, text), /trace (span log, JSONL) and /debug/pprof/. Kept off
// the API mux so deployments can bind it to a private address.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.cfg.Recorder != nil {
			io.WriteString(w, s.cfg.Recorder.Metrics().Render())
			if n := s.cfg.Recorder.DroppedSpans(); n > 0 {
				fmt.Fprintf(w, "spans dropped by bound: %d\n", n)
			}
		}
		io.WriteString(w, s.cfg.Store.RenderStats())
		io.WriteString(w, "\n")
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := s.cfg.Recorder.WriteTrace(w); err != nil {
			// Headers are gone; all we can do is stop writing.
			return
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter remembers the status code for the route's metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route observability contract:
// request/status counters, an in-flight gauge, a latency span, and the
// per-request timeout. With no recorder configured every obs call is the
// nil fast path and only the timeout wrapper remains.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		ctx = obs.Scoped(obs.With(ctx, s.cfg.Recorder), "http/"+route)
		obs.Add(ctx, "requests", 1)
		obs.Gauge(ctx, "inflight", float64(s.inflight.Add(1)))
		defer s.inflight.Add(-1)
		span := obs.StartSpan(ctx, "http/"+route)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		obs.Add(ctx, fmt.Sprintf("status_%dxx", sw.code/100), 1)
		if sw.code >= 400 {
			span.End(fmt.Errorf("status %d", sw.code))
		} else {
			span.End(nil)
		}
	}
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(apiError{Error: msg})
}

// statusFor maps an execution error onto a status code: caller mistakes
// that survived parameter validation (bad options reaching the experiment),
// identification failures, timeouts, client disconnects, and everything
// else.
func statusFor(err error) int {
	switch {
	case errors.Is(err, experiments.ErrQueryInvalid):
		return http.StatusBadRequest
	case errors.Is(err, experiments.ErrNotIdentifiable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, scenario.ErrCastingMissing):
		// The request was well-formed and named a real world — the world
		// just lacks the castings this experiment's estimand needs. Same
		// shape as non-identifiability: a 422, not a caller mistake.
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is recorded in metrics, the
		// response goes nowhere.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// encodeDoc renders a result exactly as the CLI's -json emitter does —
// json.Encoder with two-space indent and the trailing newline Encode
// appends — so served bytes and golden bytes can never drift.
func encodeDoc(res experiments.Renderable) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeDoc sends pre-encoded response-document bytes.
func writeDoc(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	w.Write(doc)
}

// writeText sends pre-rendered text-document bytes.
func writeText(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	w.Write(doc)
}

// acceptsText reports whether an Accept header asks for the text rendering:
// any listed media range whose type is text/plain (parameters and q-values
// are ignored — the server has exactly two representations and text/plain
// only appears when the caller wants it). Absent headers, */* and
// application/json all keep the JSON default, which is what every pre-
// negotiation client gets byte-identically.
func acceptsText(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if strings.EqualFold(mt, "text/plain") {
			return true
		}
	}
	return false
}

// handleList serves the experiment catalogue.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Paper string `json:"paper"`
	}
	var out []entry
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Paper: e.Paper})
	}
	doc, err := encodeDoc(renderableJSON{out})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeDoc(w, doc)
}

// renderableJSON adapts any JSON-marshalable value to encodeDoc.
type renderableJSON struct{ V any }

func (r renderableJSON) MarshalJSON() ([]byte, error) { return json.Marshal(r.V) }
func (renderableJSON) Render() string                 { return "" }

// allowedExperimentParams is the closed set of query parameters
// GET /experiment accepts; anything else is a 400, not silently ignored —
// a misspelled ?sede=7 must not serve seed-42 bytes as if it had worked.
// For the same reason each may appear at most once: ?seed=7&seed=8 must not
// serve the seed-7 bytes and drop the second seed.
var allowedExperimentParams = map[string]bool{
	"seed": true, "scenario": true, "opts": true, "workers": true,
}

// parseSeed parses a ?seed= value: an optional decimal uint64 (default 42,
// the suite's pinned seed). Signs, overflow and trailing garbage are
// errors.
func parseSeed(val string) (uint64, error) {
	if val == "" {
		return 42, nil
	}
	n, err := strconv.ParseUint(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("seed %q: must be a decimal in [0, 2^64)", val)
	}
	return n, nil
}

// parseWorkers parses a ?workers= value onto the configured default pool.
func (s *Server) parseWorkers(val string) (parallel.Pool, error) {
	if val == "" {
		return s.cfg.Pool, nil
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 || n > MaxWorkers {
		return parallel.Pool{}, fmt.Errorf("workers %q: must be an integer in [1, %d]", val, MaxWorkers)
	}
	return parallel.NewPool(n), nil
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	e, err := experiments.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	params := r.URL.Query()
	for p, vals := range params {
		if !allowedExperimentParams[p] {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown query parameter %q (allowed: opts, scenario, seed, workers)", p))
			return
		}
		if len(vals) > 1 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("query parameter %q given %d times; give it once", p, len(vals)))
			return
		}
	}
	seed, err := parseSeed(params.Get("seed"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	pool, err := s.parseWorkers(params.Get("workers"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := e.Defaults
	if raw := params.Get("opts"); raw != "" {
		opts, err = experiments.OptionsFromJSON(e.ID, []byte(raw))
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// The scenario coordinate: resolved up front (a bad gen: spec is a 400,
	// not a failed build), applied to the options, and carried in the
	// artifact key's Scenario field — scenario fields are `json:"-"` inside
	// options (analysis-side tag convention), so the key must carry it.
	scenKey := ""
	if tok := params.Get("scenario"); tok != "" {
		id, err := scenario.ResolveID(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		opts, err = experiments.OptionsWithScenario(opts, id)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		scenKey = id
	}

	// Content negotiation: Accept: text/plain serves the experiment's
	// rendered table exactly as the CLI prints it (Render plus the trailing
	// newline Println appends); everything else serves the JSON document.
	// The two representations cache under distinct kinds so a text hit can
	// never serve JSON bytes or vice versa.
	kind, encode := kindResponse, encodeDoc
	write := writeDoc
	if acceptsText(r.Header.Get("Accept")) {
		kind, write = kindResponseText, writeText
		encode = func(res experiments.Renderable) ([]byte, error) {
			return []byte(res.Render() + "\n"), nil
		}
	}
	build := func(ctx context.Context) ([]byte, error) {
		res, rerr := e.Run(ctx, experiments.Config{
			Seed: seed, Pool: pool, Artifacts: s.cfg.Store, Opts: opts,
		})
		if rerr != nil {
			return nil, rerr
		}
		return encode(res)
	}
	doc, err := s.cachedResponse(r.Context(), kind, scenKey, seed,
		respKeyConfig{Experiment: e.ID, Opts: opts}, build)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	write(w, doc)
}

// respKeyConfig is the config hashed into a GET response's artifact key.
// Opts is the experiment's typed options value; its JSON form is what
// NewKey hashes, so two requests agree exactly when their typed options
// agree. Pool width is deliberately absent: output is bit-identical at any
// width, so differently-sized requests must share one response build.
type respKeyConfig struct {
	Experiment string
	Opts       experiments.Options
}

// cachedResponse funnels a response build through the shared store:
// concurrent identical requests collapse into one experiment run
// (singleflight), later ones are byte-for-byte cache hits, and a cancelled
// builder neither poisons the store nor aborts other requests' joins.
func (s *Server) cachedResponse(ctx context.Context, kind, scenKey string, seed uint64,
	cfg any, build func(context.Context) ([]byte, error)) ([]byte, error) {
	key, err := artifact.NewKey(kind, scenKey, seed, cfg)
	if err != nil {
		return nil, err
	}
	return artifact.GetOrBuild(ctx, s.cfg.Store, key, artifact.Spec[[]byte]{
		Build: build,
		Fork:  func(b []byte) []byte { return append([]byte(nil), b...) },
		Size:  func(b []byte) int64 { return int64(len(b)) },
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, experiments.QueryMaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("reading body: document exceeds %d bytes or was cut short", experiments.QueryMaxBodyBytes))
		return
	}
	q, err := experiments.DecodeCausalQuery(body)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	// Compile before touching the cache: a malformed or non-identifiable
	// question is answered from the DAG alone, and compilation normalizes
	// the query (defaults filled, adjustment resolved) into the cache key —
	// so {"adjustment":"auto"} and its resolved explicit set share bytes.
	plan, err := experiments.CompileCausalQuery(q)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	nq := plan.Query
	build := func(ctx context.Context) ([]byte, error) {
		res, rerr := experiments.RunCausalQuery(ctx, experiments.Config{
			Pool: s.cfg.Pool, Artifacts: s.cfg.Store,
		}, nq)
		if rerr != nil {
			return nil, rerr
		}
		return encodeDoc(res)
	}
	doc, err := s.cachedResponse(r.Context(), kindQueryResponse, nq.Scenario, nq.Seed, nq, build)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeDoc(w, doc)
}
