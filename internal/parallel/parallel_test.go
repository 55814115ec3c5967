package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdered(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4, 16} {
		p := NewPool(workers)
		out, err := Map(ctx, p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryIndexExactlyOnce(t *testing.T) {
	const n = 250
	var counts [n]atomic.Int64
	if err := NewPool(8).ForEach(context.Background(), n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestLowestIndexError checks the determinism contract: whichever worker
// finishes first, the reported error is the one a sequential loop would
// have hit first.
func TestLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 7} {
		err := NewPool(workers).ForEach(context.Background(), 50, func(i int) error {
			if i%10 == 3 { // fails at 3, 13, 23, …
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index failure", workers, err)
		}
	}
}

func TestMapReturnsPartialResultsOnError(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := Map(context.Background(), NewPool(4), 10, func(i int) (int, error) {
		if i == 5 {
			return 0, sentinel
		}
		return i + 1, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if len(out) != 10 || out[0] != 1 || out[9] != 10 || out[5] != 0 {
		t.Fatalf("partial results wrong: %v", out)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	_ = NewPool(4).ForEach(context.Background(), 20, func(i int) error {
		if i == 7 {
			panic("worker 7 exploded")
		}
		return nil
	})
	t.Fatal("unreachable: ForEach should have panicked")
}

func TestZeroAndNegativeN(t *testing.T) {
	ctx := context.Background()
	var p Pool // zero value: default pool
	if err := p.ForEach(ctx, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.ForEach(ctx, -3, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	out, err := Map(ctx, p, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

// TestPoolWidths pins the width-resolution rules: a pinned pool reports its
// own width, and default (zero-valued) pools resolve to GOMAXPROCS.
func TestPoolWidths(t *testing.T) {
	if NewPool(5).Workers() != 5 {
		t.Fatalf("pinned pool width = %d want 5", NewPool(5).Workers())
	}
	want := runtime.GOMAXPROCS(0)
	if (Pool{}).Workers() != want {
		t.Fatalf("default pool width = %d want GOMAXPROCS %d", (Pool{}).Workers(), want)
	}
	if NewPool(0).Workers() != want || NewPool(-1).Workers() != want {
		t.Fatalf("n <= 0 must resolve to the default width")
	}
}

// TestPreCancelledContextRunsNothing: a context that is already cancelled
// must short-circuit before any task is scheduled.
func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := NewPool(workers).ForEach(ctx, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a pre-cancelled context", workers, ran.Load())
		}
		out, err := Map(ctx, NewPool(workers), 10, func(i int) (int, error) { return i + 1, nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Map err = %v want context.Canceled", workers, err)
		}
		if len(out) != 10 || out[0] != 0 {
			t.Fatalf("workers=%d: Map returned scheduled work %v", workers, out)
		}
	}
}

// TestCancelMidRunStopsScheduling: cancelling while tasks are in flight
// stops new tasks from being scheduled and surfaces ctx.Err(); in-flight
// tasks complete.
func TestCancelMidRunStopsScheduling(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 1000
		err := NewPool(workers).ForEach(ctx, n, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v want context.Canceled", workers, err)
		}
		// Each in-flight worker may complete the task it already claimed,
		// but nothing new is scheduled after the cancel is observed.
		if got := ran.Load(); got > int64(5+workers) {
			t.Fatalf("workers=%d: %d tasks ran after cancellation", workers, got)
		}
	}
}

// TestCancelAfterCompletionIsNoError: a context cancelled only after every
// task has finished must not retroactively fail the run.
func TestCancelAfterCompletionIsNoError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out, err := Map(ctx, NewPool(2), 8, func(i int) (int, error) { return i, nil })
	cancel()
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(out) != 8 {
		t.Fatalf("out = %v", out)
	}
}

// TestDeadlineSurfacesDeadlineExceeded: ForEach reports the context's own
// error kind, so callers can distinguish timeouts from interrupts.
func TestDeadlineSurfacesDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	err := NewPool(4).ForEach(ctx, 10, func(int) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v want context.DeadlineExceeded", err)
	}
}

// TestPoolsAreIndependentValues is the pool-as-value proof at the substrate
// level: two concurrent runs with different widths each observe exactly
// their own width, with no cross-talk through globals.
func TestPoolsAreIndependentValues(t *testing.T) {
	ctx := context.Background()
	run := func(p Pool, n int) (maxInFlight int64) {
		var inFlight, maxSeen atomic.Int64
		_ = p.ForEach(ctx, n, func(int) error {
			cur := inFlight.Add(1)
			for {
				prev := maxSeen.Load()
				if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
			return nil
		})
		return maxSeen.Load()
	}
	var wg sync.WaitGroup
	var narrowMax, wideMax int64
	wg.Add(2)
	go func() { defer wg.Done(); narrowMax = run(NewPool(1), 40) }()
	go func() { defer wg.Done(); wideMax = run(NewPool(8), 200) }()
	wg.Wait()
	if narrowMax != 1 {
		t.Fatalf("width-1 pool observed %d concurrent tasks", narrowMax)
	}
	if wideMax > 8 {
		t.Fatalf("width-8 pool observed %d concurrent tasks", wideMax)
	}
}
