package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestStageRunsBody(t *testing.T) {
	out := 0
	err := Run(context.Background(), "test/double", func(ctx context.Context) error {
		out = 21 * 2
		return nil
	})
	if err != nil || out != 42 {
		t.Fatalf("Run = %d, %v", out, err)
	}
	// A nil body is an empty seam: it succeeds and does nothing.
	if err := Run(context.Background(), "test/empty", nil); err != nil {
		t.Fatalf("Run(nil body) = %v", err)
	}
}

func TestStageEntryIsCancellationBarrier(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Run(ctx, "test/never", func(ctx context.Context) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v want context.Canceled", err)
	}
	if ran {
		t.Fatal("stage body ran under a cancelled context")
	}
	if !strings.Contains(err.Error(), "test/never") {
		t.Fatalf("error does not name the stage: %v", err)
	}
}

func TestStageWrapsBodyError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(context.Background(), "table1/estimator", func(ctx context.Context) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "pipeline: stage table1/estimator") {
		t.Fatalf("err = %v, want stage-named wrap", err)
	}
}

// TestCompositeDoesNotRewrapStageErrors: a stage run inside another stage
// (chaos drives Table 1's stages from its own loop) names its own failure,
// and the enclosing stage adds nothing.
func TestCompositeDoesNotRewrapStageErrors(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(context.Background(), "chaos/level", func(ctx context.Context) error {
		return Run(ctx, "table1/dataset", func(ctx context.Context) error { return sentinel })
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v want wrapped sentinel", err)
	}
	if got, want := err.Error(), "pipeline: stage table1/dataset: boom"; got != want {
		t.Fatalf("err = %q want %q", got, want)
	}
}

func TestGuard(t *testing.T) {
	if err := Guard(context.Background(), "chaos/sweep"); err != nil {
		t.Fatalf("Guard on live ctx = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Guard(ctx, "chaos/sweep")
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "chaos/sweep") {
		t.Fatalf("Guard = %v", err)
	}
}
