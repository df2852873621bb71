package bench

import (
	"fmt"
	"math"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// ConvergencePoint is one traced estimate: the running P̂(B) after Frac of
// the method's trial budget.
type ConvergencePoint struct {
	Frac float64
	P    float64
}

// ConvergenceResult is Fig. 11 for one dataset: the convergence trend of
// P̂(B) for a butterfly with P ≈ Mu, traced over twice the configured
// sampling trials for OS, OLS-KL and OLS.
type ConvergenceResult struct {
	Dataset string
	Target  butterfly.Butterfly
	// RefP is the reference probability (the OS estimate at 2N trials,
	// the method with the unconditional guarantee, as the paper argues).
	RefP float64
	// Band is the ±ε strip around RefP whose width the paper draws
	// (2ε·RefP absolute).
	Band [2]float64
	// Series holds the traced trend per method.
	Series map[Method][]ConvergencePoint
	// KLTargetTrials is the dynamic Karp-Luby trial count allocated to
	// the target butterfly by Equation 8.
	KLTargetTrials int
}

// tracePoints is how many points each convergence series keeps.
const tracePoints = 40

// RunSamplingConvergence reproduces Fig. 11: on each dataset it selects a
// candidate butterfly whose estimated probability is closest to
// Options.Mu (the paper traces one with P ≈ 0.05), then traces the
// running estimate over 2× SampleTrials for OS, OLS-KL and OLS.
func RunSamplingConvergence(opt Options) ([]ConvergenceResult, error) {
	ds, err := loadDatasets(opt)
	if err != nil {
		return nil, err
	}
	var out []ConvergenceResult
	for _, d := range ds {
		cands, err := core.PrepareCandidates(d.G, opt.PrepTrials, opt.Seed, core.OSOptions{})
		if err != nil {
			return nil, err
		}
		if cands.Len() == 0 {
			continue
		}
		targetIdx, err := pickTarget(d.G, cands, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", d.Name, err)
		}
		target := cands.List[targetIdx].B
		trials2N := 2 * opt.SampleTrials
		res := ConvergenceResult{
			Dataset: d.Name,
			Target:  target,
			Series:  make(map[Method][]ConvergencePoint),
		}

		every := max(trials2N/tracePoints, 1)

		// OS trace: the target's share of the maximum sets of the first t
		// trials.
		osJob := &core.ExecJob{Kind: core.ExecOS, Graph: d.G, Seed: opt.Seed + 101, Units: trials2N}
		res.Series[OS], err = tracePrefixes(osJob, every, opt.SampleTrials, func(x *core.ExecResult) float64 {
			for _, c := range x.CountsSnapshot() {
				if c.B == target {
					return float64(c.Count) / float64(x.Done)
				}
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		res.RefP = res.Series[OS][len(res.Series[OS])-1].P
		res.Band = [2]float64{res.RefP * (1 - opt.Eps), res.RefP * (1 + opt.Eps)}

		// OLS (optimized estimator) trace.
		olsJob := &core.ExecJob{Kind: core.ExecOptimized, Graph: d.G, Cands: cands, Seed: opt.Seed + 202, Units: trials2N}
		res.Series[OLS], err = tracePrefixes(olsJob, every, opt.SampleTrials, func(x *core.ExecResult) float64 {
			return x.Probs()[targetIdx]
		})
		if err != nil {
			return nil, err
		}

		// OLS-KL trace: the target candidate's estimate over the same 2N
		// trial axis as the other methods (the figure plots all three on
		// one axis; the Eq. 8 dynamic count is reported separately in
		// KLTargetTrials). The target is priced alone, as a one-unit job
		// whose stream derives from its index, so pricing it with
		// BaseTrials t gives its estimate after the first t trials.
		res.Series[OLSKL], err = traceKarpLuby(cands, targetIdx, opt.Seed+303, every, trials2N, opt.SampleTrials)
		if err != nil {
			return nil, err
		}
		// Report the Eq. 8 dynamic allocation for context.
		dynTrials, err := core.KLTrials(cands.List[targetIdx].ExistProb,
			cands.SI(targetIdx), math.Max(res.RefP, 1e-9), opt.Eps, opt.Delta)
		if err == nil {
			res.KLTargetTrials = dynTrials
		}

		out = append(out, res)
	}
	return out, nil
}

// tracePrefixes runs job's units in one-worker segments of every units and
// reads an estimate from the state of each prefix, as the dist
// coordinator folds ranges. Every unit's stream derives from (job.Seed,
// unit index), so the prefix state after t units is exactly a t-trial
// run's; its point sits at t/budget on the trial axis.
func tracePrefixes(job *core.ExecJob, every, budget int, read func(*core.ExecResult) float64) ([]ConvergencePoint, error) {
	state, err := core.NewExecState(job)
	if err != nil {
		return nil, err
	}
	exec := &core.LocalExecutor{Workers: 1}
	var out []ConvergencePoint
	for t := every; t <= job.Units; t += every {
		seg := *job
		seg.Start, seg.Units = t-every, t
		r, err := exec.ExecuteTrials(&seg)
		if err != nil {
			return nil, err
		}
		state.Fold(job.Kind, r)
		out = append(out, ConvergencePoint{Frac: float64(t) / float64(budget), P: read(state)})
	}
	return out, nil
}

// traceKarpLuby prices candidate idx alone with BaseTrials t for every
// traced t up to trials. A candidate resolved without sampling (no
// heavier competitor) is flat across the whole axis.
func traceKarpLuby(cands *core.Candidates, idx int, seed uint64, every, trials, budget int) ([]ConvergencePoint, error) {
	exec := &core.LocalExecutor{Workers: 1}
	var out []ConvergencePoint
	for t := every; t <= trials; t += every {
		r, err := exec.ExecuteTrials(&core.ExecJob{
			Kind: core.ExecKarpLuby, Graph: cands.G, Cands: cands, Seed: seed,
			Start: idx, Units: idx + 1, KL: core.KLOptions{BaseTrials: t},
		})
		if err != nil {
			return nil, err
		}
		p := r.CandProbs[0]
		if r.CandTrials[0] == 0 {
			return []ConvergencePoint{{Frac: 0, P: p}, {Frac: 2, P: p}}, nil
		}
		out = append(out, ConvergencePoint{Frac: float64(t) / float64(budget), P: p})
	}
	return out, nil
}

// pickTarget selects the candidate whose probability is closest to
// Options.Mu (the paper traces a butterfly with P ≈ 0.05), estimating
// with OS — the method carrying the unconditional Theorem IV.1 guarantee
// — rather than with an OLS estimator, whose candidate-set truncation can
// inflate mid-rank probabilities (Lemma VI.5) and would bias the choice.
// Candidates far below both Mu and the dataset's best probability are
// excluded: a too-rare target is frequently missing from independently
// prepared candidate sets, which would make the Fig. 11/12 traces
// vacuous.
func pickTarget(g *bigraph.Graph, cands *core.Candidates, opt Options) (int, error) {
	run, err := core.OS(g, core.OSOptions{Trials: opt.SampleTrials, Seed: opt.Seed + 7})
	if err != nil {
		return 0, err
	}
	est := make(map[butterfly.Butterfly]float64, len(run.Estimates))
	for _, e := range run.Estimates {
		est[e.B] = e.P
	}
	probs := make([]float64, cands.Len())
	maxP := 0.0
	for i, c := range cands.List {
		probs[i] = est[c.B]
		maxP = math.Max(maxP, probs[i])
	}
	if maxP == 0 {
		return 0, fmt.Errorf("no candidate with nonzero probability")
	}
	floor := math.Min(opt.Mu/2, maxP/2)
	best, bestDiff := -1, math.Inf(1)
	for i, p := range probs {
		if p < floor {
			continue
		}
		if d := math.Abs(p - opt.Mu); d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best, nil
}

// PreparingPoint is one independent run of Fig. 12: OLS executed with a
// given preparing-phase trial count.
type PreparingPoint struct {
	PrepTrials   int
	P            float64
	InCandidates bool
}

// PreparingResult is Fig. 12 for one dataset.
type PreparingResult struct {
	Dataset string
	Target  butterfly.Butterfly
	RefP    float64
	Band    [2]float64
	Points  []PreparingPoint
}

// RunPreparingTrend reproduces Fig. 12: for preparing trial counts from
// 10% to 200% of the configured PrepTrials, run OLS end-to-end
// independently and record the target butterfly's estimate. Early points
// are expected to be 0 (target missed) or inflated (candidate set too
// small); they should stabilize into the ε-band well before 100%.
func RunPreparingTrend(opt Options) ([]PreparingResult, error) {
	ds, err := loadDatasets(opt)
	if err != nil {
		return nil, err
	}
	var out []PreparingResult
	for _, d := range ds {
		cands, err := core.PrepareCandidates(d.G, opt.PrepTrials, opt.Seed, core.OSOptions{})
		if err != nil {
			return nil, err
		}
		if cands.Len() == 0 {
			continue
		}
		targetIdx, err := pickTarget(d.G, cands, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", d.Name, err)
		}
		target := cands.List[targetIdx].B
		res := PreparingResult{Dataset: d.Name, Target: target}

		// Reference estimate from OS over a doubled budget — immune to
		// candidate-set truncation, unlike an OLS reference run that can
		// miss the target altogether.
		ref, err := core.OS(d.G, core.OSOptions{Trials: 2 * opt.SampleTrials, Seed: opt.Seed + 11})
		if err != nil {
			return nil, err
		}
		if e, ok := ref.Lookup(target); ok {
			res.RefP = e.P
		}
		res.Band = [2]float64{res.RefP * (1 - opt.Eps), res.RefP * (1 + opt.Eps)}

		for pct := 10; pct <= 200; pct += 10 {
			n := opt.PrepTrials * pct / 100
			if n < 1 {
				n = 1
			}
			run, err := core.OLS(d.G, core.OLSOptions{
				PrepTrials: n,
				Trials:     opt.SampleTrials,
				Seed:       opt.Seed + uint64(1000+pct), // independent runs
			})
			if err != nil {
				return nil, err
			}
			pt := PreparingPoint{PrepTrials: n}
			if e, ok := run.Lookup(target); ok {
				pt.P = e.P
				pt.InCandidates = true
			}
			res.Points = append(res.Points, pt)
		}
		out = append(out, res)
	}
	return out, nil
}
