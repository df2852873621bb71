// Package mpmb searches uncertain bipartite weighted networks for the
// Most Probable Maximum Weighted Butterfly (MPMB) — the butterfly
// ((2,2)-biclique) with the highest probability of attaining the maximum
// butterfly weight over the network's possible worlds — implementing the
// algorithms of "Most Probable Maximum Weighted Butterfly Search"
// (ICDE 2025).
//
// # Model
//
// A network has two vertex partitions L and R; each edge (u ∈ L, v ∈ R)
// carries a weight and an independent existence probability. A possible
// world samples every edge by its probability; a butterfly B(u1,u2|v1,v2)
// present in a world competes by total edge weight, and P(B) accumulates
// the probability of the worlds where B is (one of) the heaviest.
// Computing P(B) exactly is #P-hard, so the package estimates it by
// sampling.
//
// # Methods
//
// Search runs the algorithm selected by Options.Method:
//
//   - MethodMCVP — the Monte-Carlo + vertex-priority baseline: every trial
//     enumerates all butterflies of a sampled world (Algorithm 1).
//   - MethodOS — Ordering Sampling: per-trial search in edge-weight order
//     with angle-ordering and pruning; ~10³× faster (Algorithm 2).
//   - MethodOLS / MethodOLSKL — Ordering-Listing Sampling: a short OS
//     preparing phase lists candidate butterflies, then a dedicated
//     estimator (the paper's optimized Algorithm 5, or Karp-Luby,
//     Algorithm 4) prices only the candidates.
//   - MethodExact — exhaustive possible-world enumeration, for small
//     graphs and ground truth.
//
// SearchContext adds cancellation with partial results and resume; the
// Searcher answers repeated queries against one graph with cached
// preparing phases; Result.TopK is the top-k MPMB extension.
//
// # Quick start
//
//	b := mpmb.NewBuilder(2, 3)
//	b.MustAddEdge(0, 0, 2.0, 0.5) // (u1, v1): weight 2, probability 0.5
//	// ... add remaining edges ...
//	g := b.Build()
//	res, err := mpmb.Search(g, mpmb.DefaultOptions())
//	if err != nil { ... }
//	best, ok := res.Best()
//	fmt.Println(best.B, best.Weight, best.P)
//
// # Observability
//
// Attach an Observer via Options.Observer to instrument a run: monotone
// counters (trials, prune rates, audit health), a per-trial latency
// histogram, the running leader estimate with its confidence half-width,
// and a typed event stream. Instrumentation never changes results, and
// a nil Observer costs nothing on the trial hot path. Observer.Metrics
// gives live snapshots; Result.Metrics the run-end view;
// Observer.HTTPHandler serves Prometheus, expvar and pprof endpoints.
package mpmb

import (
	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Graph is an immutable uncertain bipartite weighted network.
type Graph = bigraph.Graph

// Builder incrementally constructs a Graph.
type Builder = bigraph.Builder

// Edge is one uncertain weighted edge; U indexes L, V indexes R.
type Edge = bigraph.Edge

// VertexID indexes a vertex within its partition.
type VertexID = bigraph.VertexID

// Butterfly is a canonical (2,2)-biclique identifier.
type Butterfly = butterfly.Butterfly

// NewButterfly canonicalizes the four vertices (u1, u2 ∈ L; v1, v2 ∈ R).
func NewButterfly(u1, u2, v1, v2 VertexID) Butterfly {
	return butterfly.New(u1, u2, v1, v2)
}

// Estimate is one butterfly's estimated probability of being maximum.
type Estimate = core.Estimate

// Result is the output of a search: estimates sorted by probability.
type Result = core.Result

// CommunityResult is one community's full result inside a per-community
// query's Result.Communities (see Query.Community).
type CommunityResult = core.CommunityResult

// PrepSizing records an adaptive prep-sizing pre-pass decision (see
// Query.AdaptivePrep); it appears in Result.Adaptive.PrepSizing.
type PrepSizing = core.PrepSizing

// Executor is the seam between a search and the machinery that executes
// its independent trial units (see Options.Executor): the in-process
// worker pool behind Options.Workers is the default implementation, and
// the dist coordinator's executor fans the same units out across worker
// processes. Implementations must honour the core contract — execute
// exactly the prefix of requested units, derive unit i's random stream
// from (seed, i), and return an additive payload — and then any executor
// yields bit-identical Results.
type Executor = core.TrialExecutor

// NewBuilder returns a Builder for a graph with |L| = numL, |R| = numR.
func NewBuilder(numL, numR int) *Builder { return bigraph.NewBuilder(numL, numR) }

// FromEdges builds a validated graph directly from an edge list.
func FromEdges(numL, numR int, edges []Edge) (*Graph, error) {
	return bigraph.FromEdges(numL, numR, edges)
}

// LoadGraph reads a graph file, auto-detecting the text or binary
// interchange format (see SaveGraph and SaveGraphBinary).
func LoadGraph(path string) (*Graph, error) { return bigraph.Load(path) }

// SaveGraph writes a graph in the text interchange format:
//
//	mpmb-bigraph <numL> <numR> <numEdges>
//	<u> <v> <weight> <probability>
//	...
func SaveGraph(path string, g *Graph) error { return bigraph.Save(path, g) }

// SaveGraphBinary writes a graph in the checksummed binary interchange
// format — preferable for million-edge datasets, where text parsing
// dominates load time. LoadGraph reads either format.
func SaveGraphBinary(path string, g *Graph) error { return bigraph.SaveBinary(path, g) }

// Search runs the method selected in opt — the package's canonical
// entry point. See SearchContext for the cancellable variant with
// partial results and resume, and the Searcher for repeated queries
// against one graph; Search is a query on a throwaway Searcher.
func Search(g *Graph, opt Options) (*Result, error) {
	return NewSearcher(g).search(opt, nil)
}

// supervisorOptions maps the public adaptive options onto the core
// supervisor's configuration. prepared threads the Searcher's cached
// candidate set (nil for one-shot searches).
func supervisorOptions(opt Options, method Method, interrupt func() bool, prepared *core.Candidates, probe *telemetry.Probe) core.SupervisorOptions {
	return core.SupervisorOptions{
		Method:         string(method),
		Trials:         opt.Trials,
		PrepTrials:     opt.PrepTrials,
		Seed:           opt.Seed,
		Workers:        opt.Workers,
		AuditEvery:     opt.AuditEvery,
		MaxEscalations: opt.MaxEscalations,
		Epsilon:        opt.Epsilon,
		Deadline:       opt.Deadline,
		StallTimeout:   opt.StallTimeout,
		Interrupt:      interrupt,
		KL:             core.KLOptions{Mu: opt.Mu},
		Prepared:       prepared,
		Resume:         opt.Resume,
		Probe:          probe,
	}
}

// Exact computes P(B) for every butterfly by enumerating all 2^|E|
// possible worlds. It refuses graphs with more than 24 edges; the
// exponential blow-up is precisely why the sampling methods exist.
func Exact(g *Graph) (*Result, error) { return core.Exact(g) }

// ExactProb computes the exact P(B) of one butterfly by world
// enumeration, under the same edge-count limit as Exact.
func ExactProb(g *Graph, b Butterfly) (float64, error) { return core.ExactProb(g, b) }

// CountButterflies returns the number of butterflies in the backbone
// graph (every edge present), computed combinatorially without
// materializing them.
func CountButterflies(g *Graph) uint64 { return butterfly.CountBackbone(g) }

// ExpectedButterflies returns the exact expected number of butterflies
// over all possible worlds, E[#butterflies] = Σ_B Pr[E(B)], by linearity
// of expectation — the uncertain butterfly counting primitive of the
// related work the paper builds on.
func ExpectedButterflies(g *Graph) float64 { return butterfly.ExpectedCount(g) }

// CountPMF is an empirical (or exact) probability mass function of the
// per-world butterfly count.
type CountPMF = butterfly.CountPMF

// ButterflyCountPMF estimates the distribution of the butterfly count
// over possible worlds from sampled trials — the distribution-based
// analysis of the paper's related work.
func ButterflyCountPMF(g *Graph, trials int, seed uint64) (*CountPMF, error) {
	return butterfly.EstimateCountPMF(g, trials, seed)
}

// ButterflyCountVariance returns the exact variance of the per-world
// butterfly count, from pairwise joint existence probabilities. It
// refuses graphs with more than a few thousand backbone butterflies (the
// computation is quadratic); estimate via ButterflyCountPMF there.
func ButterflyCountVariance(g *Graph) (float64, error) {
	return butterfly.CountVarianceExact(g)
}

// ButterflyWithProb pairs a butterfly with its weight and existence
// probability, as returned by ButterfliesWithProbAtLeast.
type ButterflyWithProb = butterfly.WithProb

// ButterfliesWithProbAtLeast lists every backbone butterfly whose
// existence probability Pr[E(B)] reaches the threshold, sorted by
// descending probability — the threshold-based mining of the paper's
// related work, with wedge-level pruning.
func ButterfliesWithProbAtLeast(g *Graph, threshold float64) ([]ButterflyWithProb, error) {
	return butterfly.EnumerateThreshold(g, threshold)
}

// RequiredTrials returns the ε-δ trial-number lower bound of Theorem
// IV.1: with N ≥ (1/mu)·(4·ln(2/δ)/ε²) trials, a Monte-Carlo estimate μ̂
// of a probability μ ≥ mu satisfies Pr(|μ̂−μ| > ε·μ) ≤ δ.
func RequiredTrials(mu, eps, delta float64) (int, error) {
	return core.MonteCarloTrials(mu, eps, delta)
}
