// Command sisyphusd serves the paper-reproduction experiments and the
// declarative causal-query endpoint over HTTP — the "queryable causal
// backend" the paper argues the measurement community keeps failing to
// build, in place of one-shot studies.
//
// Usage:
//
//	sisyphusd -addr :8080
//	sisyphusd -addr :8080 -request-timeout 2m
//	sisyphusd -addr :8080 -admin localhost:6060
//
// Endpoints:
//
//	GET  /experiment/{id}?seed=N&scenario=S&opts=J&workers=W
//	POST /query        {"treatment": "R", "outcome": "L", "adjustment": "auto"}
//	GET  /experiments  catalogue
//	GET  /healthz
//
// A GET /experiment response is byte-identical to
// `sisyphus -experiment <id> -seed N -json`. All requests share one
// artifact store: identical concurrent requests collapse into a single
// build. -admin binds a second listener with /metrics, /trace (JSONL
// spans, bounded ring) and /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
	"sisyphus/internal/serve"
)

// Connection-level bounds for both listeners. A client that trickles its
// request headers, or parks an idle keep-alive connection, is cut off
// rather than holding a connection forever. There is deliberately no write
// timeout: /debug/pprof/profile streams for as long as the caller asks.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps a handler in a server carrying the connection bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveFlags is everything validateServeFlags inspects, gathered so the
// validation is a pure testable function.
type serveFlags struct {
	addr           string
	admin          string
	workers        int
	requestTimeout time.Duration
	maxSpans       int
}

// validateServeFlags rejects configurations that cannot mean what the user
// intended; callers exit 2 (usage) on error, matching the sisyphus CLI.
func validateServeFlags(f serveFlags) error {
	if f.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if f.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", f.workers)
	}
	if f.requestTimeout < 0 {
		return fmt.Errorf("-request-timeout must be >= 0 (got %v)", f.requestTimeout)
	}
	if f.admin != "" && f.admin == f.addr {
		return fmt.Errorf("-admin must differ from -addr (both %q)", f.addr)
	}
	if f.maxSpans < 0 {
		return fmt.Errorf("-max-spans must be >= 0 (got %d)", f.maxSpans)
	}
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "API listen address")
		admin    = flag.String("admin", "", "admin listen address for /metrics, /trace and /debug/pprof/ (empty = no admin endpoint, no recorder)")
		nworkers = flag.Int("workers", 0, "default worker-pool width for request execution (0 = GOMAXPROCS); requests may override with ?workers=")
		reqTO    = flag.Duration("request-timeout", 2*time.Minute, "per-request wall-clock bound; requests exceeding it return 504 (0 = no limit)")
		maxSpans = flag.Int("max-spans", 4096, "with -admin, keep at most this many recent latency spans in the trace ring (0 = unbounded)")
	)
	flag.Parse()
	f := serveFlags{
		addr: *addr, admin: *admin, workers: *nworkers,
		requestTimeout: *reqTO, maxSpans: *maxSpans,
	}
	if err := validateServeFlags(f); err != nil {
		fmt.Fprintln(os.Stderr, "sisyphusd:", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sisyphusd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	pool := parallel.Default()
	if *nworkers > 0 {
		pool = parallel.NewPool(*nworkers)
	}

	// The server's artifact store (serve.New makes one) is shared by every
	// request for its lifetime; the recorder exists only when an admin
	// endpoint will read it, preserving the zero-cost-when-off invariant on
	// the serving path.
	var rec *obs.Recorder
	if *admin != "" {
		rec = obs.NewRecorder()
		rec.LimitSpans(*maxSpans)
	}

	srv := serve.New(serve.Config{
		Pool:           pool,
		RequestTimeout: *reqTO,
		Recorder:       rec,
	})

	// Bind synchronously so a bad address is a startup failure, not a
	// background surprise after the process has daemonized.
	apiLn, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisyphusd: -addr:", err)
		os.Exit(2)
	}
	httpSrv := newHTTPServer(srv.Handler())

	var adminSrv *http.Server
	if *admin != "" {
		adminLn, err := net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sisyphusd: -admin:", err)
			os.Exit(2)
		}
		adminSrv = newHTTPServer(srv.AdminHandler())
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "sisyphusd: admin:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "sisyphusd: admin on %s\n", adminLn.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		// In-flight requests get one grace period to finish through their
		// own context seams before the listener is torn down.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shCtx)
		if adminSrv != nil {
			adminSrv.Shutdown(shCtx)
		}
	}()

	fmt.Fprintf(os.Stderr, "sisyphusd: serving on %s\n", apiLn.Addr())
	if err := httpSrv.Serve(apiLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "sisyphusd:", err)
		os.Exit(1)
	}
}
