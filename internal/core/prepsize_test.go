package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// refExpectedButterflies sums Π p(e) over all backbone butterflies,
// optionally restricted to an anchor — the exact expected butterfly
// count the exhaustive pre-pass must reproduce.
func refExpectedButterflies(g *bigraph.Graph, anchor *Anchor) float64 {
	var sum float64
	for _, bw := range butterfly.AllBackbone(g) {
		if anchor != nil && !anchor.contains(bw.B) {
			continue
		}
		ids, ok := bw.B.EdgeIDs(g)
		if !ok {
			continue
		}
		p := 1.0
		for _, id := range ids {
			p *= g.Edge(id).P
		}
		sum += p
	}
	return sum
}

// TestSizePrepExhaustiveExact: on graphs small enough for an exhaustive
// pre-pass, B̂ must equal the exact expected butterfly count, for global
// and for every anchored pool.
func TestSizePrepExhaustiveExact(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	graphs := []*bigraph.Graph{figure1Graph(), pendantGraph()}
	for i := 0; i < 20; i++ {
		graphs = append(graphs, randGraph(r, 5, 5, 14))
	}
	for gi, g := range graphs {
		s := SizePrep(g, nil, 1)
		if !s.Exhaustive {
			t.Fatalf("graph %d: expected exhaustive pre-pass", gi)
		}
		if want := refExpectedButterflies(g, nil); math.Abs(s.ExpectedButterflies-want) > 1e-9 {
			t.Fatalf("graph %d: B̂ = %v, want %v", gi, s.ExpectedButterflies, want)
		}
		for _, a := range allAnchors(g) {
			a := a
			s := SizePrep(g, &a, 1)
			if want := refExpectedButterflies(g, &a); math.Abs(s.ExpectedButterflies-want) > 1e-9 {
				t.Fatalf("graph %d anchor %v: B̂ = %v, want %v", gi, a, s.ExpectedButterflies, want)
			}
		}
	}
}

// TestSizePrepBudgets pins the budget policy: the paper default for
// modest graphs, a token budget for provably butterfly-free graphs, and
// the OS ladder entry only beyond the listing ceiling.
func TestSizePrepBudgets(t *testing.T) {
	s := SizePrep(figure1Graph(), nil, 1)
	if s.PrepTrials != prepSizeMinTrials || s.EntryMethod != "ols" {
		t.Fatalf("figure1 sizing: %+v", s)
	}
	// Butterfly-free graph, proven exhaustively.
	b := bigraph.NewBuilder(2, 2)
	b.MustAddEdge(0, 0, 1, 0.5)
	barren := b.Build()
	s = SizePrep(barren, nil, 1)
	if !s.Exhaustive || s.ExpectedButterflies != 0 || s.PrepTrials != prepSizeBarrenTrials {
		t.Fatalf("barren sizing: %+v", s)
	}
	// A zero-support anchor on a graph that does have butterflies.
	pg := pendantGraph()
	a := Anchor{Kind: AnchorLeft, U: 0}
	s = SizePrep(pg, &a, 1)
	if s.ExpectedButterflies != 0 || s.PrepTrials != prepSizeBarrenTrials {
		t.Fatalf("zero-support anchor sizing: %+v", s)
	}
	if got := sizePrepTrials(1e9, false); got != prepSizeMaxTrials {
		t.Fatalf("huge B̂ budget: %d", got)
	}
	if got := sizePrepTrials(0, false); got != prepSizeMinTrials {
		t.Fatalf("sampled zero budget: %d", got)
	}
}

// TestSizePrepDeterministic: same (g, anchor, seed) → same sizing, even
// on graphs large enough to force sampling.
func TestSizePrepDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	b := bigraph.NewBuilder(30, 30)
	seen := make(map[[2]int]bool)
	for i := 0; i < 200; i++ {
		u, v := r.Intn(30), r.Intn(30)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1, 0.5)
	}
	g := b.Build()
	s1 := SizePrep(g, nil, 7)
	s2 := SizePrep(g, nil, 7)
	if s1 != s2 {
		t.Fatalf("non-deterministic sizing: %+v vs %+v", s1, s2)
	}
	if s1.Exhaustive || s1.SampledEdges != prepSizeSamples {
		t.Fatalf("expected sampled pre-pass: %+v", s1)
	}
	if s1.ExpectedButterflies <= 0 {
		t.Fatalf("dense graph sized at B̂ = %v", s1.ExpectedButterflies)
	}
}

// TestSizePrepNoEscalation is the acceptance gate: supervised OLS runs
// with the sized PrepTrials must never trigger a coverage-audit
// escalation on the oracle corpus graphs used in this package.
func TestSizePrepNoEscalation(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	graphs := []*bigraph.Graph{figure1Graph(), pendantGraph()}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randGraph(r, 4, 4, 12))
	}
	for gi, g := range graphs {
		s := SizePrep(g, nil, uint64(gi))
		res, err := Supervise(g, SupervisorOptions{
			Method:     "ols",
			Trials:     2000,
			PrepTrials: s.PrepTrials,
			Seed:       uint64(gi),
			AuditEvery: 500,
		})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		if res.Adaptive == nil {
			t.Fatalf("graph %d: no adaptive report", gi)
		}
		if res.Adaptive.Escalations != 0 {
			t.Fatalf("graph %d: sized PrepTrials=%d escalated %d times", gi, s.PrepTrials, res.Adaptive.Escalations)
		}
	}
}
