package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// TestLemmaV1AngleWorkMatchesTheory verifies the Lemma V.1 complexity
// claim quantitatively: the expected number of angles an (unpruned) OS
// trial generates equals Σ_{v∈R} E[C(deg(v), 2)] = Σ_v Σ_{a<b} p_a·p_b —
// which is upper-bounded by Σ_v d̄²(v)/2, the quantity in the lemma. The
// test measures angle counts over many trials and compares the empirical
// mean against both the exact expectation and the lemma's bound.
func TestLemmaV1AngleWorkMatchesTheory(t *testing.T) {
	r := rand.New(rand.NewSource(171))
	for trial := 0; trial < 5; trial++ {
		numL, numR := 4+r.Intn(5), 4+r.Intn(5)
		b := bigraph.NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				if r.Float64() < 0.6 {
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1+r.Float64(), 0.1+0.8*r.Float64())
				}
			}
		}
		g := b.Build()

		const trials = 20000
		idx := newOSIndex(g, OSOptions{DisableEdgePrune: true, KeepAllAngles: true})

		// The kernel centers angle formation on the side with the smaller
		// expected pair-work (edgeSnapshot.flip), which is exactly the
		// min(Σ_L, Σ_R) the lemma allows. Compute the exact expectation
		// and the lemma bound over the side the snapshot chose: Σ over
		// center vertices of Σ_{a<b} p_a·p_b, bounded by Σ d̄²/2 (the
		// squared expected degree includes the diagonal, so it dominates
		// the pair count).
		exact, bound := 0.0, 0.0
		numCtr := numR
		if idx.snap.flip {
			numCtr = numL
		}
		for c := 0; c < numCtr; c++ {
			var nbrs []bigraph.Half
			var dbar float64
			if idx.snap.flip {
				nbrs = g.NeighborsL(bigraph.VertexID(c))
				dbar = g.ExpectedSquaredDegreeL(bigraph.VertexID(c))
			} else {
				nbrs = g.NeighborsR(bigraph.VertexID(c))
				dbar = g.ExpectedSquaredDegreeR(bigraph.VertexID(c))
			}
			for a := 0; a < len(nbrs); a++ {
				pa := g.Edge(nbrs[a].E).P
				for bj := a + 1; bj < len(nbrs); bj++ {
					exact += pa * g.Edge(nbrs[bj].E).P
				}
			}
			bound += dbar
		}
		bound /= 2
		root := randx.New(uint64(trial) + 5)
		var sMB maxSetScratch
		total := 0
		for i := 1; i <= trials; i++ {
			rng := root.Derive(uint64(i))
			idx.runTrial(&sMB.m, func(id bigraph.EdgeID) bool {
				return rng.Bernoulli(g.Edge(id).P)
			})
			total += anglesFormed(idx)
		}
		mean := float64(total) / trials
		if math.Abs(mean-exact) > 0.05*exact+0.5 {
			t.Fatalf("trial %d: mean angles %v, exact expectation %v", trial, mean, exact)
		}
		if mean > bound+1e-9 {
			t.Fatalf("trial %d: mean angles %v exceed the Lemma V.1 bound %v", trial, mean, bound)
		}
	}
}

// TestEdgePruneReducesAngleWork confirms the pruned trial does no more
// angle work than the unpruned one — the Section V-B speedup in the same
// unit the lemma counts.
func TestEdgePruneReducesAngleWork(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	g := randDenseSmallGraph(r, 20)
	const trials = 2000
	count := func(disable bool) int {
		idx := newOSIndex(g, OSOptions{DisableEdgePrune: disable, KeepAllAngles: true})
		root := randx.New(7)
		var sMB maxSetScratch
		total := 0
		for i := 1; i <= trials; i++ {
			rng := root.Derive(uint64(i))
			idx.runTrial(&sMB.m, func(id bigraph.EdgeID) bool {
				return rng.Bernoulli(g.Edge(id).P)
			})
			total += anglesFormed(idx)
		}
		return total
	}
	pruned, unpruned := count(false), count(true)
	if pruned > unpruned {
		t.Fatalf("pruned trials generated MORE angles: %d vs %d", pruned, unpruned)
	}
}

// anglesFormed counts the angles the last trial of a KeepAllAngles kernel
// formed: that ablation records every angle in its pair's all list.
func anglesFormed(x *osIndex) int {
	n := 0
	for k := 0; k < x.poolN; k++ {
		n += len(x.pool[k].all)
	}
	return n
}
