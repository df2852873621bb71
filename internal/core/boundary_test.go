package core

import (
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
)

// TestEdgePruneBoundaryIsStrict: the Section V-B prune breaks only when
// w(e) + w̄ is STRICTLY below w_max. On a graph where a butterfly
// completed by the lightest edges exactly ties the current maximum, the
// pruned search must still find both tied butterflies.
func TestEdgePruneBoundaryIsStrict(t *testing.T) {
	// Left 0,1; right 0..3. Butterfly A over (v0,v1) with all weights 3:
	// total 12. Butterfly B over (v2,v3) with all weights 3 as well, but
	// processed later under descending order with id tie-breaks. All
	// eight edges certain.
	b := bigraph.NewBuilder(2, 4)
	for v := 0; v < 4; v++ {
		b.MustAddEdge(0, bigraph.VertexID(v), 3, 1)
		b.MustAddEdge(1, bigraph.VertexID(v), 3, 1)
	}
	g := b.Build()
	full := possible.NewWorld(g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		full.Set(bigraph.EdgeID(i))
	}
	m := OSOnWorld(g, full, OSOptions{})
	// All C(2,2)·C(4,2) = 6 butterflies tie at weight 12; every one must
	// be found despite the prune being armed at w_max = 12 with
	// w(e)+w̄ = 3+9 = 12 (not < 12).
	if m.W != 12 || len(m.Set) != 6 {
		t.Fatalf("S_MB = %d butterflies at weight %v, want 6 at 12", len(m.Set), m.W)
	}
}

// TestEdgePruneActuallyCuts: with a dominant heavy butterfly and strictly
// lighter tail edges, the pruned trial must not even sample the tail.
// Verified by counting oracle calls through OSOnWorld's deterministic
// variant versus the lazy sampler's Bernoulli consumption.
func TestEdgePruneActuallyCuts(t *testing.T) {
	b := bigraph.NewBuilder(2, 12)
	// Heavy certain butterfly: weight 40.
	b.MustAddEdge(0, 0, 10, 1)
	b.MustAddEdge(0, 1, 10, 1)
	b.MustAddEdge(1, 0, 10, 1)
	b.MustAddEdge(1, 1, 10, 1)
	// Light tail: weight 1 edges. w(e)+w̄ = 1+30 = 31 < 40 → pruned.
	for v := 2; v < 12; v++ {
		b.MustAddEdge(0, bigraph.VertexID(v), 1, 1)
		b.MustAddEdge(1, bigraph.VertexID(v), 1, 1)
	}
	g := b.Build()
	full := possible.NewWorld(g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		full.Set(bigraph.EdgeID(i))
	}

	idx := newOSIndex(g, OSOptions{})
	touched := 0
	var max butterfly.MaxSet
	idx.runTrial(&max, func(id bigraph.EdgeID) bool {
		touched++
		return full.Has(id)
	})
	if max.W != 40 || len(max.Set) != 1 {
		t.Fatalf("S_MB = %v at %v, want the single weight-40 butterfly", max.Set, max.W)
	}
	// The four heavy edges plus at most a few tail probes before the
	// prune arms; certainly not all 24 edges.
	if touched >= g.NumEdges() {
		t.Fatalf("prune never cut: %d of %d edges probed", touched, g.NumEdges())
	}

	// Sanity: with the prune disabled every edge is probed.
	idxOff := newOSIndex(g, OSOptions{DisableEdgePrune: true})
	touched = 0
	idxOff.runTrial(&max, func(id bigraph.EdgeID) bool {
		touched++
		return full.Has(id)
	})
	if touched != g.NumEdges() {
		t.Fatalf("prune-off probed %d of %d edges", touched, g.NumEdges())
	}
}

// TestKLMaxTrialsCap: a candidate whose Equation 8 allocation explodes is
// clamped to klTrialCap × BaseTrials.
func TestKLMaxTrialsCap(t *testing.T) {
	// Heaviest candidate nearly certain; second candidate also nearly
	// certain → huge Pr[E]/μ ratio at small μ.
	b := bigraph.NewBuilder(2, 4)
	for v := 0; v < 2; v++ {
		b.MustAddEdge(0, bigraph.VertexID(v), 5, 0.99)
		b.MustAddEdge(1, bigraph.VertexID(v), 5, 0.99)
	}
	for v := 2; v < 4; v++ {
		b.MustAddEdge(0, bigraph.VertexID(v), 4, 0.99)
		b.MustAddEdge(1, bigraph.VertexID(v), 4, 0.99)
	}
	g := b.Build()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	var used []int
	_, err = EstimateKarpLuby(cands, KLOptions{
		BaseTrials: 1000,
		Mu:         0.001, // forces an enormous Eq. 8 ratio
		Seed:       3,
		TrialsUsed: &used,
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := klTrialCap * 1000
	capped := false
	for i, u := range used {
		if u > limit {
			t.Fatalf("candidate %d ran %d trials beyond the cap", i, u)
		}
		if u == limit {
			capped = true
		}
	}
	if !capped {
		t.Fatalf("no candidate hit the cap; trials used: %v", used)
	}
}

// TestOSAllEqualWeights: with every edge weight equal the prune can never
// fire (w(e)+w̄ always equals the best butterfly weight) and the result
// must still match brute force.
func TestOSAllEqualWeights(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		numL, numR := 2+r.Intn(3), 2+r.Intn(3)
		b := bigraph.NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				if r.Float64() < 0.7 {
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 2, r.Float64())
				}
			}
		}
		g := b.Build()
		w := possible.NewWorld(g.NumEdges())
		for i := 0; i < g.NumEdges(); i++ {
			if r.Float64() < 0.7 {
				w.Set(bigraph.EdgeID(i))
			}
		}
		got := OSOnWorld(g, w, OSOptions{})
		want := butterfly.MaxWeightSet(g, w)
		if got.Empty() != want.Empty() {
			t.Fatalf("trial %d: emptiness mismatch", trial)
		}
		if !got.Empty() && (got.W != want.W || len(got.Set) != len(want.Set)) {
			t.Fatalf("trial %d: got %d@%v want %d@%v", trial, len(got.Set), got.W, len(want.Set), want.W)
		}
	}
}

// TestOSNegativeWeights: the paper defines w: E → ℝ but its pseudocode
// initializes w_max to 0, silently assuming positive weights. This
// implementation initializes to -Inf, so worlds whose butterflies all
// have negative weight still produce a correct S_MB. Verified against
// brute force on random negative-weight graphs.
func TestOSNegativeWeights(t *testing.T) {
	r := rand.New(rand.NewSource(191))
	nonEmpty := 0
	for trial := 0; trial < 100; trial++ {
		numL, numR := 2+r.Intn(3), 2+r.Intn(3)
		b := bigraph.NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				if r.Float64() < 0.7 {
					w := -5 + float64(r.Intn(10))/2 // [-5, 0) half steps, some exactly 0
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, r.Float64())
				}
			}
		}
		g := b.Build()
		w := possible.NewWorld(g.NumEdges())
		for i := 0; i < g.NumEdges(); i++ {
			if r.Float64() < 0.8 {
				w.Set(bigraph.EdgeID(i))
			}
		}
		got := OSOnWorld(g, w, OSOptions{})
		want := butterfly.MaxWeightSet(g, w)
		if got.Empty() != want.Empty() {
			t.Fatalf("trial %d: emptiness mismatch", trial)
		}
		if got.Empty() {
			continue
		}
		nonEmpty++
		if got.W != want.W || len(got.Set) != len(want.Set) {
			t.Fatalf("trial %d: got %d@%v want %d@%v", trial, len(got.Set), got.W, len(want.Set), want.W)
		}
	}
	if nonEmpty < 10 {
		t.Fatalf("only %d non-empty worlds; test too weak", nonEmpty)
	}
}
