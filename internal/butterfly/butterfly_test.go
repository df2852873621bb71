package butterfly

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

func figure1(t testing.TB) *bigraph.Graph {
	t.Helper()
	b := bigraph.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	return b.Build()
}

func randGraph(r *rand.Rand, maxL, maxR int, density float64) *bigraph.Graph {
	numL, numR := 1+r.Intn(maxL), 1+r.Intn(maxR)
	b := bigraph.NewBuilder(numL, numR)
	for u := 0; u < numL; u++ {
		for v := 0; v < numR; v++ {
			if r.Float64() < density {
				b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), math.Floor(r.Float64()*10)/2, r.Float64())
			}
		}
	}
	return b.Build()
}

func fullWorld(g *bigraph.Graph) *possible.World {
	w := possible.NewWorld(g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		w.Set(bigraph.EdgeID(i))
	}
	return w
}

func TestNewCanonicalization(t *testing.T) {
	b := New(3, 1, 7, 2)
	if b.U1 != 1 || b.U2 != 3 || b.V1 != 2 || b.V2 != 7 {
		t.Fatalf("canonical form wrong: %+v", b)
	}
	if b != New(1, 3, 2, 7) {
		t.Fatal("canonicalization not stable across argument orders")
	}
	if s := b.String(); s != "B(1,3|2,7)" {
		t.Fatalf("String = %q", s)
	}
}

func TestNewPanicsOnDegenerate(t *testing.T) {
	for _, args := range [][4]bigraph.VertexID{{1, 1, 2, 3}, {1, 2, 3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", args)
				}
			}()
			New(args[0], args[1], args[2], args[3])
		}()
	}
}

func TestEdgeIDsWeightExistProb(t *testing.T) {
	g := figure1(t)
	b := New(0, 1, 1, 2) // B(u1,u2 | v2,v3)
	ids, ok := b.EdgeIDs(g)
	if !ok {
		t.Fatal("backbone butterfly not resolved")
	}
	wantIDs := [4]bigraph.EdgeID{1, 2, 4, 5} // (u1,v2),(u1,v3),(u2,v2),(u2,v3)
	if ids != wantIDs {
		t.Fatalf("EdgeIDs = %v, want %v", ids, wantIDs)
	}
	if w, _ := b.Weight(g); w != 7 {
		t.Fatalf("Weight = %v, want 7", w)
	}
	pr, _ := b.ExistProb(g)
	want := 0.6 * 0.8 * 0.4 * 0.7
	if math.Abs(pr-want) > 1e-12 {
		t.Fatalf("ExistProb = %v, want %v", pr, want)
	}
	// Non-backbone butterfly.
	nb := Butterfly{U1: 0, U2: 1, V1: 0, V2: 9}
	if _, ok := nb.EdgeIDs(g); ok {
		t.Fatal("resolved a butterfly with a missing edge")
	}
	if _, ok := nb.Weight(g); ok {
		t.Fatal("Weight ok for non-backbone butterfly")
	}
	if _, ok := nb.ExistProb(g); ok {
		t.Fatal("ExistProb ok for non-backbone butterfly")
	}
}

func TestExistsIn(t *testing.T) {
	g := figure1(t)
	b := New(0, 1, 1, 2)
	w := fullWorld(g)
	if !b.ExistsIn(g, w) {
		t.Fatal("butterfly absent from the full world")
	}
	w.Clear(4) // remove (u2, v2)
	if b.ExistsIn(g, w) {
		t.Fatal("butterfly exists despite a missing edge")
	}
}

func TestAllBackboneFigure1(t *testing.T) {
	g := figure1(t)
	all := AllBackbone(g)
	if len(all) != 3 {
		t.Fatalf("backbone has %d butterflies, want 3", len(all))
	}
	weights := []float64{all[0].W, all[1].W, all[2].W}
	sort.Float64s(weights)
	if weights[0] != 7 || weights[1] != 7 || weights[2] != 10 {
		t.Fatalf("weights = %v, want [7 7 10]", weights)
	}
}

// TestReferenceEnumerationCountsMatchFormula cross-checks the enumerator
// against the combinatorial count Σ over right-vertex pairs of
// C(common, 2) on complete bipartite graphs, where every pair of left
// vertices and right pair forms a butterfly: count = C(|L|,2)·C(|R|,2).
func TestReferenceEnumerationCountsMatchFormula(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 3}, {2, 5}} {
		numL, numR := dims[0], dims[1]
		b := bigraph.NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1, 1)
			}
		}
		g := b.Build()
		count := 0
		ForEachInWorld(g, fullWorld(g), func(Butterfly, float64) bool {
			count++
			return true
		})
		want := numL * (numL - 1) / 2 * (numR * (numR - 1) / 2)
		if count != want {
			t.Fatalf("K(%d,%d): %d butterflies, want %d", numL, numR, count, want)
		}
	}
}

// TestEnumerationNoDuplicates uses testing/quick over random graphs and
// worlds: the reference enumerator must produce each butterfly at most
// once and every butterfly it reports must actually exist in the world.
func TestEnumerationNoDuplicates(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 6, 6, 0.5)
		rng := randx.New(uint64(seed) + 99)
		w := possible.Sample(g, rng)
		seen := make(map[Butterfly]bool)
		ok := true
		ForEachInWorld(g, w, func(b Butterfly, wt float64) bool {
			if seen[b] || !b.ExistsIn(g, w) {
				ok = false
				return false
			}
			cw, exists := b.Weight(g)
			if !exists || cw != wt {
				ok = false
				return false
			}
			seen[b] = true
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerationEarlyStop(t *testing.T) {
	g := figure1(t)
	visits := 0
	ForEachInWorld(g, fullWorld(g), func(Butterfly, float64) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("enumeration continued after stop: %d visits", visits)
	}
	visits = 0
	order := g.PriorityOrder()
	ForEachInWorldVP(g, fullWorld(g), order, func(Butterfly, float64) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("VP enumeration continued after stop: %d visits", visits)
	}
}

func TestMaxSetSemantics(t *testing.T) {
	var m MaxSet
	if !m.Empty() {
		t.Fatal("zero MaxSet not empty")
	}
	b1, b2, b3 := New(0, 1, 0, 1), New(0, 1, 0, 2), New(0, 1, 1, 2)
	m.Add(b1, 5)
	m.Add(b2, 5)
	if m.W != 5 || len(m.Set) != 2 {
		t.Fatalf("after two weight-5 adds: W=%v |Set|=%d", m.W, len(m.Set))
	}
	m.Add(b3, 7)
	if m.W != 7 || len(m.Set) != 1 || m.Set[0] != b3 {
		t.Fatalf("heavier add did not reset: W=%v Set=%v", m.W, m.Set)
	}
	m.Add(b1, 3)
	if m.W != 7 || len(m.Set) != 1 {
		t.Fatal("lighter add changed the set")
	}
	m.Reset()
	if !m.Empty() {
		t.Fatal("Reset did not empty the set")
	}
	// Negative and zero weights are legitimate maxima.
	m.Add(b1, -2)
	if m.Empty() || m.W != -2 {
		t.Fatalf("negative-weight butterfly not tracked: %+v", m)
	}
}

func TestCountInWorldVP(t *testing.T) {
	g := figure1(t)
	order := g.PriorityOrder()
	if got := CountInWorldVP(g, fullWorld(g), order); got != 3 {
		t.Fatalf("CountInWorldVP = %d, want 3", got)
	}
	empty := possible.NewWorld(g.NumEdges())
	if got := CountInWorldVP(g, empty, order); got != 0 {
		t.Fatalf("CountInWorldVP on empty world = %d, want 0", got)
	}
}

func TestMaxWeightSetFigure1(t *testing.T) {
	g := figure1(t)
	m := MaxWeightSet(g, fullWorld(g))
	if m.W != 10 || len(m.Set) != 1 || m.Set[0] != New(0, 1, 0, 1) {
		t.Fatalf("backbone S_MB = %+v, want single weight-10 butterfly", m)
	}
}

// completeBipartite builds K(m,n) with uniform probability p.
func completeBipartite(m, n int, p float64) *bigraph.Graph {
	b := bigraph.NewBuilder(m, n)
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1, p)
		}
	}
	return b.Build()
}
