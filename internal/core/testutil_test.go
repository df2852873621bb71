package core

import (
	"math/rand"
	"runtime"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/interval"
)

// statTolAlpha is the per-comparison two-sided error probability the
// convergence tests accept, matching the internal/statcheck harness: at
// 1e-9 a failing comparison is an estimator bug, not seed luck, so the
// tests stay deterministic-given-seed without hand-tuned slack.
const statTolAlpha = 1e-9

// statTol returns the Hoeffding acceptance half-width for a binomial
// proportion estimated over the given trial count (the derivation lives
// in internal/interval).
func statTol(trials int) float64 { return interval.HoeffdingHalfWidth(trials, statTolAlpha) }

// statTolScaled is statTol for an estimate that is an affine transform of
// a binomial proportion with the given scale — the Karp-Luby estimator,
// whose estimate moves by Pr[E(B_i)]·S_i per unit of its underlying
// proportion. The 1e-9 floor covers the candidates Karp-Luby prices in
// closed form (L(i) = 0 or S_i = 0), which are exact up to float
// association.
func statTolScaled(scale float64, trials int) float64 {
	if eps := interval.ScaledHalfWidth(scale, trials, statTolAlpha); eps > 1e-9 {
		return eps
	}
	return 1e-9
}

// newOSIndex builds a kernel over a fresh, uncached snapshot of g.
func newOSIndex(g *bigraph.Graph, opt OSOptions) *osIndex {
	return newOSIndexFromSnapshot(g, opt, newEdgeSnapshot(g, runtime.GOMAXPROCS(0)))
}

// figure1Graph builds the running example of the paper's Figure 1:
// L = {u1, u2}, R = {v1, v2, v3} with the listed weights and
// probabilities. Vertex ids: u1=0, u2=1; v1=0, v2=1, v3=2.
func figure1Graph() *bigraph.Graph {
	b := bigraph.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5) // (u1, v1)
	b.MustAddEdge(0, 1, 2, 0.6) // (u1, v2)
	b.MustAddEdge(0, 2, 1, 0.8) // (u1, v3)
	b.MustAddEdge(1, 0, 3, 0.3) // (u2, v1)
	b.MustAddEdge(1, 1, 3, 0.4) // (u2, v2)
	b.MustAddEdge(1, 2, 1, 0.7) // (u2, v3)
	return b.Build()
}

// halfGrid is the weight grid used by random test graphs: half-integer
// steps are exactly representable in float64, so weight ties are exact no
// matter the summation order and every algorithm agrees bit-for-bit.
var halfGrid = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}

// probGrid includes the deterministic endpoints 0 and 1 to exercise
// forced-present and forced-absent edges.
var probGrid = []float64{0, 0.2, 0.35, 0.5, 0.75, 0.9, 1}

// randGraph generates a random uncertain bipartite graph with at most
// maxE edges (duplicates skipped) over partitions of size up to maxL and
// maxR, using the exact-tie-friendly grids above.
func randGraph(r *rand.Rand, maxL, maxR, maxE int) *bigraph.Graph {
	numL := 1 + r.Intn(maxL)
	numR := 1 + r.Intn(maxR)
	b := bigraph.NewBuilder(numL, numR)
	seen := make(map[[2]int]bool)
	n := r.Intn(maxE + 1)
	for i := 0; i < n; i++ {
		u := r.Intn(numL)
		v := r.Intn(numR)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		w := halfGrid[r.Intn(len(halfGrid))]
		p := probGrid[r.Intn(len(probGrid))]
		b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, p)
	}
	return b.Build()
}

// randDenseSmallGraph generates graphs small enough for exact world
// enumeration (≤ maxEdges edges) but dense enough to contain butterflies
// frequently.
func randDenseSmallGraph(r *rand.Rand, maxEdges int) *bigraph.Graph {
	for {
		numL := 2 + r.Intn(2) // 2..3
		numR := 2 + r.Intn(2)
		b := bigraph.NewBuilder(numL, numR)
		edges := 0
		for u := 0; u < numL && edges < maxEdges; u++ {
			for v := 0; v < numR && edges < maxEdges; v++ {
				if r.Float64() < 0.8 {
					w := halfGrid[r.Intn(len(halfGrid))]
					p := 0.2 + 0.7*r.Float64()
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, p)
					edges++
				}
			}
		}
		if b.NumEdges() >= 4 {
			return b.Build()
		}
	}
}

// maxSetScratch wraps a reusable MaxSet for instrumentation tests.
type maxSetScratch struct {
	m butterfly.MaxSet
}

// pooled spreads an OLS run's sampling phase over a LocalExecutor of w
// workers.
func pooled(opt OLSOptions, w int) OLSOptions {
	opt.Executor = &LocalExecutor{Workers: w}
	return opt
}

// anchoredOLS is Ordering-Listing Sampling restricted to an anchor: the
// anchored preparing phase, then the sampling phase over its candidates
// on w workers.
func anchoredOLS(g *bigraph.Graph, a Anchor, opt OLSOptions, w int) (*Result, error) {
	cands, err := PrepareAnchoredCandidates(g, a, opt.PrepTrials, opt.Seed, opt.Interrupt)
	if err != nil {
		return nil, err
	}
	return OLSSamplingPhaseParallel(cands, opt, w)
}
