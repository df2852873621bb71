package core

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

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
	// maximum weight exceeds the remaining candidates' weights, and past
	// the first existing candidate of the heaviest weight class (the
	// results are unchanged because such candidates can never join S_MB,
	// and the heaviest class is priced in closed form; they are simply
	// tested and discarded). Ablation only.
	DisableEarlyBreak bool
	// Interrupt, if non-nil, is polled between trials; when it returns
	// true the run stops and the returned probabilities are normalized
	// over the completed trials (OLS reports how many, and checkpoints
	// them). A multi-worker executor polls the hook concurrently from
	// every worker; it must be safe for concurrent use there.
	Interrupt func() bool
	// Probe, if non-nil, receives run telemetry: trial counts, the
	// candidate scanned/pruned split of the early break (Algorithm 3
	// lines 5-6), and running leader estimates. Nil costs one predictable
	// branch per trial.
	Probe *telemetry.Probe
	// Executor, if non-nil, replaces the default one-worker LocalExecutor
	// with an explicit TrialExecutor: a multi-worker pool, or — through
	// OLS, which supplies the run identity remote workers need — a
	// distributed fan-out.
	Executor TrialExecutor
}

// EstimateOptimized runs Algorithm 5 over a weight-sorted candidate set
// and returns P̂(B_i) for every candidate, indexed like c.List.
//
// All candidates share each trial: candidates are visited in descending
// weight order, each candidate's four edges are sampled lazily (an edge is
// Bernoulli-sampled at most once per trial no matter how many candidates
// contain it), the first existing candidate fixes w_max, candidates tied
// at w_max keep being collected, and the scan stops at the first candidate
// lighter than w_max. Presence draws go through precomputed Bernoulli
// thresholds, draw-for-draw identical to randx.Bernoulli, and the
// steady-state trial allocates nothing.
//
// A candidate of the heaviest weight class has no strictly heavier
// competitor, so its P(B_i) is Pr[E(B_i)], which Algorithm 4 prices with
// no trials (L(i) = 0). This estimator prices that class the same way,
// exactly, and ends each trial at its first existing member. A trial
// reaches the lighter classes only when none of the heaviest exists, after
// the same draws as a full scan, so their estimates are Algorithm 5's bit
// for bit. A trial therefore costs O(|C_MB|) in the worst case and
// typically far less (Lemma VI.3), even when one weight class holds all
// of C_MB: on the movielens and jester analogues, whose ~14k and ~19k
// candidates all tie, a trial visits about five.
//
// Trials run on opt.Executor, or on one local worker when it is nil; the
// estimates are bit-identical either way.
func EstimateOptimized(c *Candidates, opt OptimizedOptions) ([]float64, error) {
	job, err := opt.job(c)
	if err != nil {
		return nil, err
	}
	r, err := execute(opt.Executor, 0, job, nil)
	if err != nil {
		return nil, err
	}
	return r.Probs(), nil
}

// job returns the estimator's run over c as an ExecJob.
func (o OptimizedOptions) job(c *Candidates) (*ExecJob, error) {
	if o.Trials <= 0 {
		return nil, fmt.Errorf("core: optimized estimator requires Trials > 0, got %d", o.Trials)
	}
	return &ExecJob{
		Kind:  ExecOptimized,
		Graph: c.G,
		Cands: c,
		Seed:  o.Seed,
		Units: o.Trials,
		Optimized: OptimizedOptions{
			EagerSampling:     o.EagerSampling,
			DisableEarlyBreak: o.DisableEarlyBreak,
		},
		Interrupt: o.Interrupt,
		Probe:     o.Probe,
	}, nil
}

// probeOptimizedLeader publishes the running argmax of the optimized
// estimator's estimates after trial trials, the heaviest class priced as
// Probs prices it. Called at flush cadence only, so the O(n) scan is
// amortized over probeFlushEvery trials.
func probeOptimizedLeader(p *telemetry.Probe, c *Candidates, counts []int64, trial int) {
	if p == nil || len(counts) == 0 {
		return
	}
	lead, best := 0, -1.0
	for k, cnt := range counts {
		pk := float64(cnt) / float64(trial)
		if k < c.top {
			pk = c.List[k].ExistProb
		}
		if pk > best {
			lead, best = k, pk
		}
	}
	probeEstimate(p, 0, best, trial, c.List[lead].B, c.List[lead].Weight)
}

// Probs returns the per-candidate estimates of a sampling-phase state:
// the Karp-Luby estimates as priced, or the optimized estimator's hit
// counts normalized over the completed trials (lines 11–12), with the
// heaviest weight class at its exact Pr[E(B_i)] whatever its counts.
func (r *ExecResult) Probs() []float64 {
	if r.CandProbs != nil {
		return r.CandProbs
	}
	probs := make([]float64, len(r.CandCounts))
	if r.Done > 0 {
		for i, cnt := range r.CandCounts {
			probs[i] = float64(cnt) / float64(r.Done)
		}
	}
	for i := range r.cands.top {
		probs[i] = r.cands.List[i].ExistProb
	}
	return probs
}
