// Package parallel is the repository's worker-pool substrate. Every hot
// loop that fans out over independent tasks — placebo donor fits, the
// E1–E15 experiment suite, per-destination BGP propagation, Monte-Carlo
// sampling shards — goes through a Pool's ForEach or the package Map rather
// than spawning ad-hoc goroutines, so concurrency policy (pool width,
// sequential fallback, cancellation) lives in one place.
//
// Pools are values. A Pool is an immutable description of a width; it holds
// no goroutines, no locks, and no global state, so two runs with different
// pools never interfere — the property that lets a server host concurrent
// analyses with per-request widths. The zero Pool is valid and resolves to
// the process default (GOMAXPROCS).
//
// Cancellation contract: ForEach and Map stop scheduling new tasks as soon
// as ctx is cancelled and return ctx.Err(). Tasks already running finish
// (they are pure functions of their index and cheap relative to a stage);
// their results are discarded by callers that see the context error. A
// context that is never cancelled changes nothing: every task runs and the
// error/result semantics below are bit-identical to a plain sequential loop.
//
// Determinism contract: callers must make each task a pure function of its
// index. Anything stochastic pre-splits its RNG streams per index (via
// mathx.RNG.Split, in index order, before dispatch) so that task i consumes
// the same stream no matter which worker runs it or in what order. Under
// that discipline Map's output — and therefore every experiment table — is
// bit-identical between Workers()==1 and Workers()==N. DESIGN.md's
// "Concurrency & determinism" section records the rule.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"sisyphus/internal/obs"
)

// Pool is a value describing a worker-pool width. The zero value resolves
// to the process default at call time. Copying a Pool is free and safe;
// concurrent use of the same Pool value is safe (it is immutable).
type Pool struct {
	workers int
}

// NewPool returns a pool pinned to the given width. n <= 0 returns the
// default pool (GOMAXPROCS).
func NewPool(n int) Pool {
	if n < 0 {
		n = 0
	}
	return Pool{workers: n}
}

// Default returns the default-width pool (equivalent to the zero Pool).
func Default() Pool { return Pool{} }

// Workers reports the width this pool runs at: the pinned width if set,
// else runtime.GOMAXPROCS(0).
func (p Pool) Workers() int {
	if p.workers > 0 {
		return p.workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(0), …, fn(n-1) across the pool and blocks until every
// scheduled call returns.
//
// If ctx is cancelled, no further tasks are scheduled and ForEach returns
// ctx.Err() (a pre-cancelled context runs nothing). Otherwise all n calls
// run even after a task failure — tasks are independent by contract — and
// if any return a non-nil error, the error with the lowest index is
// returned: the same error a sequential stop-at-first-failure loop would
// have surfaced, regardless of worker interleaving. A panic in any task is
// re-raised in the caller.
func (p Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	// Account the fan-out when a recorder rides the context (nil-recorder
	// no-op otherwise). Reading the batch size never changes scheduling.
	obs.Add(ctx, "parallel.batches", 1)
	obs.Add(ctx, "parallel.tasks", int64(n))
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential fast path: no goroutines, but identical cancellation
		// and lowest-error semantics as the concurrent branch.
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	errs := make([]error, n)
	var next atomic.Int64
	var cancelled atomic.Bool
	var panicked atomic.Value // first panic, re-raised in the caller
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, r)
						}
					}()
					errs[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn for every index across the pool and returns the results in
// index order — out[i] == fn(i) — independent of scheduling. On error it
// still returns the full slice (failed or unscheduled slots hold the zero
// value) alongside the error: ctx.Err() if the run was cancelled, else the
// lowest-index task error, mirroring ForEach.
func Map[T any](ctx context.Context, p Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(ctx, n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	return out, err
}
