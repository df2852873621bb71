package core

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// EstimatorState reports how far an estimator ran, for partial results and
// checkpointing. An estimator fills the options' State pointer (when
// non-nil) whether the run completed or was cancelled.
type EstimatorState struct {
	// Partial is true when the run was cut short by the Interrupt hook.
	Partial bool
	// Done is the completed prefix: trials for the optimized estimator,
	// fully priced candidates for Karp-Luby.
	Done int
	// Counts is the optimized estimator's per-candidate hit tally at stop.
	Counts []int64
	// Probs / Trials are Karp-Luby's per-candidate estimates and executed
	// trial counts (entries at index >= Done are unpriced).
	Probs  []float64
	Trials []int
}

// OptimizedOptions configures the paper's optimized probability estimator
// (Algorithm 5), the sampling phase of OLS.
type OptimizedOptions struct {
	// Trials is N_op, the number of shared sampling trials. Must be > 0.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
	// EagerSampling samples every candidate-relevant edge at the start of
	// each trial instead of lazily on first touch. Ablation only; the
	// estimate distribution is identical.
	EagerSampling bool
	// DisableEarlyBreak keeps scanning candidates after the running
	// maximum weight exceeds the remaining candidates' weights (the
	// results are unchanged because such candidates can never join S_MB;
	// they are simply tested and discarded). Ablation only.
	DisableEarlyBreak bool
	// OnTrial, if non-nil, receives after each trial the 1-based trial
	// index and the candidate indices credited in that trial (the trial's
	// S_MB restricted to C_MB). The slice is reused; copy to retain.
	OnTrial func(trial int, hits []int)
	// Interrupt, if non-nil, is polled between trials; when it returns
	// true the run stops and the returned probabilities are normalized
	// over the completed trials (State reports how many). A multi-worker
	// executor polls the hook concurrently from every worker; it must be
	// safe for concurrent use there.
	Interrupt func() bool
	// State, if non-nil, receives the run's completion state — partial
	// flag, completed trials, and the raw counts needed to checkpoint.
	State *EstimatorState
	// ResumeCounts / ResumeDone seed the accumulator from an earlier
	// cancelled run: counts indexed like the candidate list, with
	// ResumeDone trials already folded in. The run continues at trial
	// ResumeDone+1 and finishes bit-identically to an uninterrupted one.
	ResumeCounts []int64
	ResumeDone   int
	// Probe, if non-nil, receives run telemetry: trial counts, the
	// candidate scanned/pruned split of the early break (Algorithm 3
	// lines 5-6), and running leader estimates. Nil costs one predictable
	// branch per trial.
	Probe *telemetry.Probe
	// Executor, if non-nil, replaces the default one-worker LocalExecutor
	// with an explicit TrialExecutor (a multi-worker pool, a distributed
	// fan-out). Spec then carries the run-level identity remote executors
	// need.
	Executor TrialExecutor
	Spec     ExecSpec
}

// EstimateOptimized runs Algorithm 5 over a weight-sorted candidate set
// and returns P̂(B_i) for every candidate, indexed like c.List.
//
// All candidates share each trial: candidates are visited in descending
// weight order, each candidate's four edges are sampled lazily (an edge is
// Bernoulli-sampled at most once per trial no matter how many candidates
// contain it), the first existing candidate fixes w_max, candidates tied
// at w_max keep being collected, and the scan stops at the first candidate
// lighter than w_max. Each trial therefore costs O(|C_MB|) in the worst
// case and typically far less (Lemma VI.3). Presence draws go through
// precomputed Bernoulli thresholds, draw-for-draw identical to
// randx.Bernoulli, and the steady-state trial allocates nothing.
//
// Trials run on opt.Executor, or on one local worker when it is nil; the
// estimates are bit-identical either way. The OnTrial hook and the
// EagerSampling/DisableEarlyBreak ablations need a one-worker run.
func EstimateOptimized(c *Candidates, opt OptimizedOptions) ([]float64, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: optimized estimator requires Trials > 0, got %d", opt.Trials)
	}
	counts, err := optimizedResumeCounts(len(c.List), opt)
	if err != nil {
		return nil, err
	}
	r, err := execute(opt.Executor, 0, &ExecJob{
		Kind:  ExecOptimized,
		Graph: c.G,
		Cands: c,
		Seed:  opt.Seed,
		Units: opt.Trials,
		Start: opt.ResumeDone,
		Optimized: OptimizedOptions{
			EagerSampling:     opt.EagerSampling,
			DisableEarlyBreak: opt.DisableEarlyBreak,
			OnTrial:           opt.OnTrial,
		},
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		Spec:      opt.Spec,
		into:      &ExecResult{Done: opt.ResumeDone, CandCounts: counts},
	})
	if err != nil {
		return nil, err
	}
	return optimizedFinish(r.CandCounts, r.Done, opt, r.Done < opt.Trials), nil
}

// probeOptimizedLeader publishes the running argmax of the optimized
// estimator's count vector. Called at flush cadence only, so the O(n)
// scan is amortized over probeFlushEvery trials.
func probeOptimizedLeader(p *telemetry.Probe, c *Candidates, counts []int64, trial int) {
	if p == nil || len(counts) == 0 {
		return
	}
	lead := 0
	for k := 1; k < len(counts); k++ {
		if counts[k] > counts[lead] {
			lead = k
		}
	}
	probeEstimate(p, 0, counts[lead], trial, c.List[lead].B, c.List[lead].Weight)
}

// optimizedResumeCounts validates resume options and returns the
// accumulator of the resumed prefix 1..ResumeDone.
func optimizedResumeCounts(n int, opt OptimizedOptions) ([]int64, error) {
	if opt.ResumeDone < 0 || opt.ResumeDone > opt.Trials {
		return nil, fmt.Errorf("core: optimized resume at trial %d outside [0,%d]", opt.ResumeDone, opt.Trials)
	}
	counts := make([]int64, n)
	if opt.ResumeCounts != nil {
		if len(opt.ResumeCounts) != n {
			return nil, fmt.Errorf("core: optimized resume has %d candidate counts, want %d", len(opt.ResumeCounts), n)
		}
		copy(counts, opt.ResumeCounts)
	} else if opt.ResumeDone != 0 {
		return nil, fmt.Errorf("core: optimized resume at trial %d without counts", opt.ResumeDone)
	}
	return counts, nil
}

// optimizedFinish converts counts into probabilities normalized over the
// done-trial prefix (lines 11–12) and reports the run state.
func optimizedFinish(counts []int64, done int, opt OptimizedOptions, partial bool) []float64 {
	probs := make([]float64, len(counts))
	if done > 0 {
		for i, cnt := range counts {
			probs[i] = float64(cnt) / float64(done)
		}
	}
	if opt.State != nil {
		*opt.State = EstimatorState{Partial: partial, Done: done, Counts: counts}
	}
	return probs
}
