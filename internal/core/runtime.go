package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dnastore/internal/obs"
)

// Canonical stage names. These are the obs.Registry keys every execution
// path uses (batch, stream, volume, archive), the names Result.Stages,
// StreamResult.Stages and -metrics-json carry, and the names chaos hooks
// match on. Only streamed runs have a stageDemux.
const (
	stageEncode      = "encode"
	stageSimulate    = "simulate"
	stageDemux       = "demux"
	stageCluster     = "cluster"
	stageReconstruct = "reconstruct"
	stageDecode      = "decode"
)

// Typed sentinel errors of the fault-tolerant runtime. All are matchable
// with errors.Is through the dnastore facade.
var (
	// ErrNotConfigured is returned when a pipeline is missing a module.
	ErrNotConfigured = errors.New("core: pipeline module not configured")
	// ErrCancelled wraps every abort caused by context cancellation or a
	// deadline (the whole-run context or RunOptions.StageTimeout). The
	// underlying context.Canceled / context.DeadlineExceeded stays in the
	// chain, so errors.Is matches either level.
	ErrCancelled = errors.New("core: run cancelled")
	// ErrStagePanic wraps a panic raised by a pipeline stage on the
	// orchestrator's goroutine. The process survives; the run fails with
	// this typed error instead.
	ErrStagePanic = errors.New("core: pipeline stage panicked")
	// ErrRetriesExhausted wraps the final decode error after every retry
	// attempt (RunOptions.Retries) failed.
	ErrRetriesExhausted = errors.New("core: decode failed after all retry attempts")
	// ErrNoUsableClusters is returned when clustering left no cluster with a
	// read (a run with no reads, say), so the first attempt has nothing to
	// reconstruct. A retry whose cluster-size floor keeps no cluster does not
	// return it: the earlier attempts' outcome stands.
	ErrNoUsableClusters = errors.New("core: no clusters survived filtering")
	// ErrVolumeDamaged is returned by RunStream when one or more volumes
	// could not be recovered and best-effort mode is off. The per-volume
	// errors live in StreamResult.Volumes; the damaged regions of the output
	// are zero-filled so surviving volumes keep their byte offsets.
	ErrVolumeDamaged = errors.New("core: one or more volumes damaged")
)

// cancelErr wraps a cancellation observed before or during the named stage
// so that errors.Is matches both ErrCancelled and the context's own error.
func cancelErr(ctx context.Context, stage string) error {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w during %s: %w", ErrCancelled, stage, cause)
}

// noUsableClustersErr details an ErrNoUsableClusters failure.
func noUsableClustersErr(floor, clusters int) error {
	return fmt.Errorf("%w: cluster-size floor %d dropped all %d clusters", ErrNoUsableClusters, floor, clusters)
}

// retriesExhaustedErr details an ErrRetriesExhausted failure.
func retriesExhaustedErr(attempts int, last error) error {
	if last == nil {
		return fmt.Errorf("%w (%d attempts)", ErrRetriesExhausted, attempts)
	}
	return fmt.Errorf("%w (%d attempts): %w", ErrRetriesExhausted, attempts, last)
}

// isAbort reports whether a stage error must abort the whole run (as
// opposed to a decode failure the retry controller may escalate past).
func isAbort(err error) bool {
	return errors.Is(err, ErrCancelled) || errors.Is(err, ErrStagePanic) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runStage executes one pipeline stage under the optional per-stage
// deadline, containing panics and normalizing cancellation errors:
//
//   - a panic on this goroutine becomes ErrStagePanic carrying the stage
//     name (panics inside the built-in worker pools are salvaged per work
//     item before they get here — see the sim, recon and cluster
//     packages);
//   - a context error (the stage deadline or the caller's cancellation)
//     comes back wrapped in ErrCancelled with the cause preserved;
//   - any other stage error passes through untouched.
//
// stage names the stage in those errors, and st is its obs counter set
// (nil, from a nil registry, records nothing): runStage records the call
// and busy time through st.Time, counts a contained panic via AddPanics,
// and fires the registry's StageBegin/StageEnd hooks. A hook that panics
// (chaos injection) is indistinguishable from the stage itself panicking —
// it surfaces as ErrStagePanic with the stage name attached.
func runStage(ctx context.Context, stage string, st *obs.Stage, timeout time.Duration, fn func(ctx context.Context) error) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if ctx.Err() != nil {
		return cancelErr(ctx, stage)
	}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				st.AddPanics(1)
				err = fmt.Errorf("%w: %s: %v", ErrStagePanic, stage, r)
			}
		}()
		return st.Time(func() error { return fn(ctx) })
	}()
	if err == nil || errors.Is(err, ErrStagePanic) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w during %s: %w", ErrCancelled, stage, err)
	}
	return err
}
