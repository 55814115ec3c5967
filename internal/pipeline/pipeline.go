// Package pipeline defines the staged run architecture the experiment
// runners are built on: Scenario → Dataset → Estimator → Report.
//
// The paper's §4 platform proposals — and Hours et al.'s causal study
// framework — treat a measurement analysis as a sequence of separable
// stages: construct (or observe) a world, extract a measurement panel from
// it, run an estimator over the panel, and render diagnostics. Keeping
// those seams explicit in the code is what lines up profiles, traces and
// error messages across experiments, and is where cancellation is checked:
// every stage entry is a cancellation barrier, so a cancelled run stops
// within one stage boundary even if the stage bodies never look at the
// context again.
//
// A stage is a name plus a body run through Run; experiments name theirs
// after the canonical seams (the Scenario/Dataset/Estimator/Report
// constants).
package pipeline

import (
	"context"
	"errors"

	"sisyphus/internal/obs"
)

// Canonical stage names. Experiments qualify them as "<id>/<stage>", e.g.
// "table1/estimator".
const (
	Scenario  = "scenario"  // world construction and measurement collection
	Dataset   = "dataset"   // panel / measurement extraction and binning
	Estimator = "estimator" // synthetic control, DiD, IV, OLS, …
	Report    = "report"    // rendering and serializable result assembly
)

// stageError wraps a stage body's failure with the stage name. It exists so
// an enclosing stage doesn't re-wrap an error a deeper stage (or Guard)
// already named: the innermost stage is the useful one in a message.
type stageError struct {
	stage string
	err   error
}

func (e *stageError) Error() string { return "pipeline: stage " + e.stage + ": " + e.err.Error() }
func (e *stageError) Unwrap() error { return e.err }

// wrapStage names err after the stage unless some inner stage already did.
func wrapStage(name string, err error) error {
	var se *stageError
	if errors.As(err, &se) {
		return err
	}
	return &stageError{stage: name, err: err}
}

// Run executes one stage: it checks for cancellation at entry (the stage
// boundary), then invokes fn, which must honor ctx in its own long loops. A
// nil fn is an empty (but still traced) stage. Errors — including the
// context's own — come back wrapped with the stage name, so a failure deep
// inside a run names the seam it crossed.
//
// Every Run is a trace point: when the context carries an obs.Recorder the
// stage records a span (name, wall time, error tag). Without one, StartSpan
// returns the nil no-op span — observability reads the run, never shapes it.
func Run(ctx context.Context, name string, fn func(context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return wrapStage(name, err)
	}
	sp := obs.StartSpan(ctx, name)
	var err error
	if fn != nil {
		if err = fn(ctx); err != nil {
			err = wrapStage(name, err)
		}
	}
	sp.End(err)
	return err
}

// Guard returns ctx.Err() wrapped with a stage name, or nil. It is the
// cancellation barrier for code that iterates *within* a stage (a chaos
// sweep level, a per-unit estimator loop) and wants the same error shape a
// stage entry would produce.
func Guard(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return wrapStage(name, err)
	}
	return nil
}
