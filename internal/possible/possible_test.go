package possible

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

func smallGraph(t testing.TB) *bigraph.Graph {
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

func TestWorldBitsetOps(t *testing.T) {
	w := NewWorld(130) // spans three uint64 words
	if w.Count() != 0 {
		t.Fatal("fresh world not empty")
	}
	for _, id := range []bigraph.EdgeID{0, 63, 64, 129} {
		if w.Has(id) {
			t.Fatalf("edge %d present before Set", id)
		}
		w.Set(id)
		if !w.Has(id) {
			t.Fatalf("edge %d absent after Set", id)
		}
	}
	if w.Count() != 4 {
		t.Fatalf("Count = %d, want 4", w.Count())
	}
	w.Clear(64)
	if w.Has(64) || w.Count() != 3 {
		t.Fatal("Clear failed")
	}
	c := w.Clone()
	if !c.Equal(w) {
		t.Fatal("clone not equal")
	}
	c.Set(5)
	if c.Equal(w) {
		t.Fatal("clone aliases original")
	}
	w.Reset()
	if w.Count() != 0 {
		t.Fatal("Reset failed")
	}
	if w.NumBackboneEdges() != 130 {
		t.Fatalf("NumBackboneEdges = %d", w.NumBackboneEdges())
	}
	if w.Equal(NewWorld(10)) {
		t.Fatal("worlds over different universes compared equal")
	}
}

// TestEnumerateProbabilitiesSumToOne: the probabilities of all possible
// worlds form a distribution (property over random graphs).
func TestEnumerateProbabilitiesSumToOne(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3)
		b := bigraph.NewBuilder(n, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r.Float64() < 0.7 {
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1, r.Float64())
				}
			}
		}
		g := b.Build()
		total := 0.0
		worlds := 0
		if err := Enumerate(g, func(w *World, pr float64) bool {
			total += pr
			worlds++
			return true
		}); err != nil {
			return false
		}
		return worlds == 1<<g.NumEdges() && math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEnumerateProbMatchesProb: the probability passed by Enumerate equals
// Prob() recomputed from the world bitset.
func TestEnumerateProbMatchesProb(t *testing.T) {
	g := smallGraph(t)
	if err := Enumerate(g, func(w *World, pr float64) bool {
		if math.Abs(pr-Prob(g, w)) > 1e-12 {
			t.Fatalf("enumerated prob %v != Prob %v", pr, Prob(g, w))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := smallGraph(t)
	visits := 0
	if err := Enumerate(g, func(w *World, pr float64) bool {
		visits++
		return visits < 5
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 5 {
		t.Fatalf("enumeration visited %d worlds after stop, want 5", visits)
	}
}

func TestEnumerateLimit(t *testing.T) {
	b := bigraph.NewBuilder(5, 5)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), 1, 0.5)
		}
	}
	if err := Enumerate(b.Build(), func(*World, float64) bool { return true }); err == nil {
		t.Fatal("Enumerate accepted 25 edges")
	}
}

// TestSampleFrequencies: each edge's empirical presence rate matches its
// probability, and deterministic edges (p=0 or 1) behave exactly.
func TestSampleFrequencies(t *testing.T) {
	b := bigraph.NewBuilder(2, 2)
	b.MustAddEdge(0, 0, 1, 0)
	b.MustAddEdge(0, 1, 1, 1)
	b.MustAddEdge(1, 0, 1, 0.3)
	b.MustAddEdge(1, 1, 1, 0.8)
	g := b.Build()
	rng := randx.New(17)
	const trials = 100000
	counts := make([]int, 4)
	w := NewWorld(4)
	for i := 0; i < trials; i++ {
		SampleInto(w, g, rng)
		for id := 0; id < 4; id++ {
			if w.Has(bigraph.EdgeID(id)) {
				counts[id]++
			}
		}
	}
	if counts[0] != 0 {
		t.Fatalf("p=0 edge sampled %d times", counts[0])
	}
	if counts[1] != trials {
		t.Fatalf("p=1 edge sampled %d times, want %d", counts[1], trials)
	}
	for id, want := range map[int]float64{2: 0.3, 3: 0.8} {
		rate := float64(counts[id]) / trials
		if math.Abs(rate-want) > 0.01 {
			t.Fatalf("edge %d rate %v, want ≈ %v", id, rate, want)
		}
	}
}

func TestSampleIntoPanicsOnSizeMismatch(t *testing.T) {
	g := smallGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInto accepted a mis-sized world")
		}
	}()
	SampleInto(NewWorld(3), g, randx.New(1))
}
