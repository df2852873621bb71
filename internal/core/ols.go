package core

import (
	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// OLSOptions configures Ordering-Listing Sampling (Algorithm 3).
type OLSOptions struct {
	// PrepTrials is N_os for the preparing phase (paper default: 100).
	PrepTrials int
	// Trials is the sampling-phase trial number: N_op for the optimized
	// estimator, or the BaseTrials reference for Karp-Luby.
	Trials int
	// Seed makes the run reproducible; the preparing and sampling phases
	// derive independent streams from it.
	Seed uint64
	// UseKarpLuby selects Algorithm 4 for the sampling phase instead of
	// the paper's optimized Algorithm 5, i.e. the OLS-KL configuration.
	UseKarpLuby bool
	// KL carries Karp-Luby-specific knobs. BaseTrials, Seed, Interrupt
	// and Executor are overwritten from this struct's fields.
	KL KLOptions
	// Optimized carries optimized-estimator knobs. Trials, Seed,
	// Interrupt and Executor are overwritten likewise.
	Optimized OptimizedOptions
	// OS configures the preparing phase's Ordering Sampling pruning
	// behaviour (its Trials, Seed and Interrupt fields are ignored;
	// cancellation uses the top-level Interrupt).
	OS OSOptions
	// Interrupt, if non-nil, is polled between preparing trials and inside
	// the sampling phase; when it returns true the run stops and returns a
	// partial Result with a resumable Checkpoint. Cancellation during the
	// preparing phase yields a prepare-phase checkpoint and no estimates
	// yet; during the sampling phase, estimates over the completed prefix.
	// A multi-worker sampling phase polls the hook concurrently from every
	// worker; it must be safe for concurrent use there.
	Interrupt func() bool
	// Resume continues a cancelled run from its checkpoint. The options
	// must match the checkpointed run (method, seed, trial targets, Mu,
	// graph); the finished Result is bit-identical to an uninterrupted
	// run. Note the checkpoint does not record the OS pruning flags:
	// resume them with the same values.
	Resume *Checkpoint
	// Probe, if non-nil, receives run telemetry from both phases: the
	// preparing phase flushes under the "prep" phase label (with candidate
	// promotions), the sampling phase under "sample". Nil is free.
	Probe *telemetry.Probe
	// Executor, if non-nil, runs the SAMPLING phase through an explicit
	// TrialExecutor — a multi-worker LocalExecutor, a distributed fan-out
	// — instead of one local worker. The preparing phase always runs once,
	// on one local worker in the caller's process; a distributed executor
	// ships the candidate set it lists to the workers.
	Executor TrialExecutor

	// stop, when past the resumed prefix, ends the sampling phase after
	// that unit with a partial Result: a supervised segment.
	stop int
}

func (o OLSOptions) method() string {
	if o.UseKarpLuby {
		return "ols-kl"
	}
	return "ols"
}

// header returns the run's identity as a checkpoint header: method,
// seed, trial targets and, for ols-kl, the Karp-Luby sizing.
func (o OLSOptions) header() Checkpoint {
	h := Checkpoint{Method: o.method(), Seed: o.Seed, Trials: o.Trials, PrepTrials: o.PrepTrials}
	if o.UseKarpLuby {
		h.Mu = o.KL.Mu
	}
	return h
}

// OLS is Ordering-Listing Sampling (Section VI, Algorithm 3). The
// preparing phase (lines 2–4) runs Ordering Sampling for PrepTrials
// rounds, unioning each round's maximum butterfly set into the candidate
// set C_MB; the sampling phase (line 5) then estimates P(B) for the
// candidates only — with the optimized shared-trial estimator (Algorithm
// 5) or, when UseKarpLuby is set, the Karp-Luby estimator (Algorithm 4).
//
// The returned Result contains an estimate for every candidate (zeros
// included) and reports both phases' trial counts. A graph that produced
// no candidate at all (no butterfly observed in any preparing trial)
// yields an empty Result rather than an error.
//
// Both phases run on one local worker unless opt.Executor takes over the
// sampling phase; the Result is bit-identical either way. opt.Resume is
// checked against the run by the sampling phase, after a prepare-phase
// checkpoint has resumed the listing.
func OLS(g *bigraph.Graph, opt OLSOptions) (*Result, error) {
	prepOpt := opt.OS.kernel()
	prepOpt.Interrupt = opt.Interrupt
	prepOpt.Probe = opt.Probe // the preparing phase rebinds it to its phase label
	if ck := opt.Resume; ck != nil && ck.Prepare {
		prepOpt.Resume = ck
	}
	cands, err := PrepareCandidates(g, opt.PrepTrials, opt.Seed, prepOpt)
	if err != nil {
		return nil, err
	}
	return OLSSamplingPhaseParallel(cands, opt, 1)
}

// OLSSamplingPhaseParallel runs the sampling phase of Algorithm 3 over an
// already-prepared candidate set, with the estimator trials (or, for
// Karp-Luby, candidates) distributed over workers goroutines (≤ 1 means
// one) or over opt.Executor when one is set. Results are bit-identical for
// every worker count. The benchmark harness uses it to time the two
// phases separately (Fig. 8) and to sweep trial counts without re-listing
// candidates; the Searcher uses it to reuse cached candidates.
//
// A candidate set whose listing was interrupted (PrepDone < PrepTrials)
// yields the prepare-phase partial Result, with a checkpoint that resumes
// the listing. opt.Resume is validated against the run; a prepare-phase
// checkpoint has been consumed by the listing, so sampling starts fresh.
func OLSSamplingPhaseParallel(cands *Candidates, opt OLSOptions, workers int) (*Result, error) {
	method, g, run := opt.method(), cands.G, opt.header()
	resume := opt.Resume
	if err := resume.resumeCheck(run, g); err != nil {
		return nil, err
	}
	if resume != nil && resume.Prepare {
		resume = nil
	}
	if cands.PrepDone < opt.PrepTrials {
		res := &Result{Method: method, Trials: opt.Trials, PrepTrials: opt.PrepTrials, Partial: true}
		if !cands.anchored {
			res.Checkpoint = cands.prepCheckpoint(run)
		}
		return res, nil
	}
	if cands.Len() == 0 {
		return &Result{Method: method, Trials: opt.Trials, TrialsDone: opt.Trials, PrepTrials: opt.PrepTrials}, nil
	}
	// The sampling phase must not share a random stream with the
	// preparing phase; offset the seed deterministically.
	sampleSeed := opt.Seed ^ 0xa5a5a5a5deadbeef
	var job *ExecJob
	var err error
	if opt.UseKarpLuby {
		kl := opt.KL
		kl.BaseTrials, kl.Seed = opt.Trials, sampleSeed
		job, err = kl.job(cands)
	} else {
		op := opt.Optimized
		op.Trials, op.Seed = opt.Trials, sampleSeed
		job, err = op.job(cands)
	}
	if err != nil {
		return nil, err
	}
	job.Interrupt, job.Probe, job.stop = opt.Interrupt, opt.Probe, opt.stop
	units := job.Units // execute lowers job.Units to opt.stop
	r, err := execute(opt.Executor, workers, job, resume)
	if err != nil {
		return nil, err
	}
	if opt.UseKarpLuby {
		opt.KL.report(r)
	}
	res := cands.result(method, r.Probs(), opt.Trials, opt.PrepTrials)
	res.TrialsDone = opt.Trials
	if r.Done < units {
		res.Partial, res.TrialsDone = true, r.Done
		if !cands.anchored {
			res.Checkpoint = r.checkpoint(run, g)
		}
	}
	probeFinish(opt.Probe, res)
	return res, nil
}
