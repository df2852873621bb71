package core

import (
	"fmt"
	"math"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// The frozen SEED runners of Ordering Sampling and of the two OLS
// estimators, over the seed trial loop in osref.go. The equivalence tests
// compare the production runners against them bit for bit. Do not
// "optimize" anything here — the whole point is that this code stays
// what the seed was.

// OSReference is the frozen seed implementation of Ordering Sampling. It
// supports only plain complete runs (no Interrupt/Resume); its
// Result must be bit-identical to OS with the same graph and options.
func OSReference(g *bigraph.Graph, opt OSOptions) (*Result, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: OSReference requires Trials > 0, got %d", opt.Trials)
	}
	idx := newOSRefIndex(g, opt)
	acc := newProbAccumulator()
	root := randx.New(opt.Seed)
	var sMB butterfly.MaxSet
	for trial := 1; trial <= opt.Trials; trial++ {
		rng := root.Derive(uint64(trial))
		idx.runTrial(&sMB, func(id bigraph.EdgeID) bool {
			return rng.Bernoulli(g.Edge(id).P)
		})
		if !sMB.Empty() {
			acc.addMaxSet(&sMB)
		}
	}
	return acc.result("os", opt.Trials), nil
}

// OLSReference is the frozen seed implementation of Ordering-Listing
// Sampling: seed preparing phase over the reference OS index, then the
// reference optimized (or, with opt.UseKarpLuby, Karp-Luby) estimator.
// Plain complete runs only; bit-identical to OLS with the same options.
func OLSReference(g *bigraph.Graph, opt OLSOptions) (*Result, error) {
	method := opt.method()
	idx := newOSRefIndex(g, opt.OS)
	root := randx.New(opt.Seed)
	hits := make(map[butterfly.Butterfly]int)
	var sMB butterfly.MaxSet
	for trial := 1; trial <= opt.PrepTrials; trial++ {
		rng := root.Derive(uint64(trial))
		idx.runTrial(&sMB, func(id bigraph.EdgeID) bool {
			return rng.Bernoulli(g.Edge(id).P)
		})
		for _, b := range sMB.Set {
			hits[b]++
		}
	}
	cands, err := NewCandidates(g, hits)
	if err != nil {
		return nil, err
	}
	cands.PrepDone = opt.PrepTrials
	if cands.Len() == 0 {
		return &Result{Method: method, Trials: opt.Trials, TrialsDone: opt.Trials, PrepTrials: opt.PrepTrials}, nil
	}
	sampleSeed := opt.Seed ^ 0xa5a5a5a5deadbeef
	var probs []float64
	if opt.UseKarpLuby {
		kl := opt.KL
		kl.BaseTrials = opt.Trials
		kl.Seed = sampleSeed
		probs, err = ReferenceEstimateKarpLuby(cands, kl)
	} else {
		op := opt.Optimized
		op.Trials = opt.Trials
		op.Seed = sampleSeed
		probs, err = ReferenceEstimateOptimized(cands, op)
	}
	if err != nil {
		return nil, err
	}
	res := cands.result(method, probs, opt.Trials, opt.PrepTrials)
	res.TrialsDone = opt.Trials
	return res, nil
}

// ReferenceEstimateOptimized is the frozen seed implementation of the
// optimized estimator's trial loop (Algorithm 5): per-trial Derive, lazy
// float-math Bernoulli per edge. Plain complete runs only.
func ReferenceEstimateOptimized(c *Candidates, opt OptimizedOptions) ([]float64, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: reference optimized estimator requires Trials > 0, got %d", opt.Trials)
	}
	n := len(c.List)
	counts := make([]int64, n)
	g := c.G
	numE := g.NumEdges()
	stamp := make([]int32, numE)
	val := make([]bool, numE)
	var cur int32
	root := randx.New(opt.Seed)
	for trial := 1; trial <= opt.Trials; trial++ {
		rng := root.Derive(uint64(trial))
		cur++
		wMax := math.Inf(-1)
		for k := 0; k < n; k++ {
			cand := &c.List[k]
			if cand.Weight < wMax {
				break
			}
			exists := true
			for _, id := range cand.Edges {
				if stamp[id] != cur {
					stamp[id] = cur
					val[id] = rng.Bernoulli(g.Edge(id).P)
				}
				if !val[id] {
					exists = false
					break
				}
			}
			if exists {
				counts[k]++
				wMax = cand.Weight
			}
		}
	}
	probs := make([]float64, n)
	for i, cnt := range counts {
		probs[i] = float64(cnt) / float64(opt.Trials)
	}
	return probs, nil
}

// ReferenceEstimateKarpLuby is the frozen seed implementation of the
// Karp-Luby estimator loop (Algorithm 4): per-candidate Derive, float-math
// Bernoulli per relevant edge. Plain complete runs only.
func ReferenceEstimateKarpLuby(c *Candidates, opt KLOptions) ([]float64, error) {
	if err := validateKL(opt); err != nil {
		return nil, err
	}
	n := len(c.List)
	g := c.G
	probs := make([]float64, n)
	numE := g.NumEdges()
	stamp := make([]int32, numE)
	val := make([]bool, numE)
	var cur int32
	maxTrials := opt.MaxTrials
	if maxTrials <= 0 {
		maxTrials = 50 * opt.BaseTrials
	}
	root := randx.New(opt.Seed)
	for i := 0; i < n; i++ {
		cand := &c.List[i]
		li := c.LargerCount(i)
		if li == 0 {
			probs[i] = cand.ExistProb
			continue
		}
		diffs := make([][]bigraph.EdgeID, li)
		diffProbs := make([]float64, li)
		sI := 0.0
		for j := 0; j < li; j++ {
			diffs[j] = c.DiffEdges(j, i)
			diffProbs[j] = 1.0
			for _, id := range diffs[j] {
				diffProbs[j] *= g.Edge(id).P
			}
			sI += diffProbs[j]
		}
		if sI == 0 {
			probs[i] = cand.ExistProb
			continue
		}
		nTrials := opt.BaseTrials
		if opt.Mu > 0 {
			ratio := KLOpRatio(cand.ExistProb, sI, opt.Mu)
			nTrials = int(ratio*float64(opt.BaseTrials)) + 1
			if nTrials > maxTrials {
				nTrials = maxTrials
			}
		}
		alias := randx.NewAlias(diffProbs)
		rng := root.Derive(uint64(i) + 1)
		cnt := 0
		for t := 0; t < nTrials; t++ {
			cur++
			j := alias.Sample(rng)
			for _, id := range diffs[j] {
				stamp[id] = cur
				val[id] = true
			}
			minimal := true
			for k := 0; k < j && minimal; k++ {
				allPresent := true
				for _, id := range diffs[k] {
					if stamp[id] != cur {
						stamp[id] = cur
						val[id] = rng.Bernoulli(g.Edge(id).P)
					}
					if !val[id] {
						allPresent = false
						break
					}
				}
				if allPresent {
					minimal = false
				}
			}
			if minimal {
				cnt++
			}
		}
		p := (1 - float64(cnt)/float64(nTrials)*sI) * cand.ExistProb
		if p < 0 {
			p = 0
		}
		if p > cand.ExistProb {
			p = cand.ExistProb
		}
		probs[i] = p
	}
	return probs, nil
}
