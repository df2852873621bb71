package mpmb

import (
	"context"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// ErrWorkerPanic is wrapped by the error a parallel search (Options.Workers
// > 1) returns when a worker goroutine panics: the panic is recovered, the
// sibling workers are cancelled, and the panic value is reported through
// errors.Is(err, ErrWorkerPanic) instead of crashing the process.
var ErrWorkerPanic = core.ErrWorkerPanic

// Checkpoint is the resumable accumulator state of a cancelled search,
// attached to the partial Result and accepted back via Options.Resume. It
// records the method, seed, trial targets and a fingerprint of the graph,
// so a checkpoint can only resume the run that wrote it; the resumed run
// finishes bit-identically to one that was never interrupted.
type Checkpoint = core.Checkpoint

// SaveCheckpoint writes a checkpoint to path in a versioned, checksummed
// binary format (written atomically via a temporary file).
func SaveCheckpoint(path string, c *Checkpoint) error {
	return core.SaveCheckpoint(path, c)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, verifying
// its checksum and internal consistency. Truncated, corrupted or
// version-skewed files return an error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return core.LoadCheckpoint(path)
}

// SearchContext is Search with graceful degradation: when ctx is cancelled
// (deadline, timeout, signal) the run stops at the next trial boundary and
// returns the work already done as a partial *Result instead of
// discarding it — Result.Partial is true, Result.TrialsDone < Result.Trials,
// and the estimates are normalized over the completed trials. Because
// every trial's random stream derives from (Seed, trial index), that
// completed prefix is exactly the run Options.Trials=TrialsDone would have
// produced: a valid, unbiased (if lower-fidelity) estimate, not a
// corrupted one.
//
// For the resumable methods (mc-vp, os, ols, ols-kl) the partial Result
// also carries Result.Checkpoint; pass it back via Options.Resume (or
// persist it with SaveCheckpoint) to finish the run later,
// bit-identically to an uninterrupted one. A cancelled exact enumeration
// returns partial lower-bound sums with no checkpoint.
//
// Cancellation is reported through the Result, not the error: the error
// is non-nil only for invalid options or an internal failure (e.g. a
// worker panic when Options.Workers > 1). A ctx that is already cancelled
// on entry yields an empty partial Result with TrialsDone == 0.
func SearchContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	return NewSearcher(g).search(opt, ctxHook(ctx))
}

// ctxHook adapts a context to the core Interrupt polling hook. The hook
// is safe for concurrent use, as multi-worker runs require.
func ctxHook(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool {
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}
