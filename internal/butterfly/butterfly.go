// Package butterfly provides the deterministic butterfly machinery that
// the MPMB samplers are built on: angle (wedge) and butterfly types,
// canonicalization, weight and existence-probability computation, and two
// enumeration strategies over a possible world — a simple common-neighbour
// reference enumerator and the vertex-priority (BFC-VP style) enumerator
// the MC-VP baseline uses.
//
// A butterfly B(u1,u2,v1,v2) is a (2,2)-biclique of the bipartite graph:
// u1,u2 ∈ L, v1,v2 ∈ R, with all four edges present (Definition 4). Its
// weight is the sum of its four edge weights (Equation 2). An angle
// ∠(a, m, b) is a 3-vertex path with middle m on the opposite side of its
// endpoints a, b (Definition 3); two angles with the same endpoints and
// different middles combine into a butterfly.
package butterfly

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/possible"
)

// Butterfly identifies a (2,2)-biclique in canonical form: U1 < U2 and
// V1 < V2. The zero value is a valid (if usually nonexistent) butterfly,
// and the type is comparable, so it can key maps directly.
type Butterfly struct {
	U1, U2 bigraph.VertexID // left vertices, U1 < U2
	V1, V2 bigraph.VertexID // right vertices, V1 < V2
}

// New returns the canonical Butterfly on the given vertices, swapping
// within each side as needed. It panics if u1 == u2 or v1 == v2, which
// never denotes a butterfly.
func New(u1, u2, v1, v2 bigraph.VertexID) Butterfly {
	if u1 == u2 || v1 == v2 {
		panic(fmt.Sprintf("butterfly: degenerate vertices (%d,%d,%d,%d)", u1, u2, v1, v2))
	}
	if u1 > u2 {
		u1, u2 = u2, u1
	}
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	return Butterfly{U1: u1, U2: u2, V1: v1, V2: v2}
}

// String renders the butterfly as B(u1,u2 | v1,v2).
func (b Butterfly) String() string {
	return fmt.Sprintf("B(%d,%d|%d,%d)", b.U1, b.U2, b.V1, b.V2)
}

// EdgeIDs resolves the four edges of b in g's backbone, in the fixed order
// (U1,V1), (U1,V2), (U2,V1), (U2,V2). ok is false if any edge is missing
// from the backbone, in which case b is not a butterfly of g at all.
func (b Butterfly) EdgeIDs(g *bigraph.Graph) (ids [4]bigraph.EdgeID, ok bool) {
	pairs := [4][2]bigraph.VertexID{
		{b.U1, b.V1}, {b.U1, b.V2}, {b.U2, b.V1}, {b.U2, b.V2},
	}
	for i, pr := range pairs {
		id, found := g.FindEdge(pr[0], pr[1])
		if !found {
			return ids, false
		}
		ids[i] = id
	}
	return ids, true
}

// Weight returns w(B) = Σ of the four edge weights (Equation 2), always
// summing in canonical edge order so equal butterflies produce bit-equal
// weights. ok is false if b is not a butterfly of g's backbone.
func (b Butterfly) Weight(g *bigraph.Graph) (float64, bool) {
	ids, ok := b.EdgeIDs(g)
	if !ok {
		return 0, false
	}
	w := 0.0
	for _, id := range ids {
		w += g.Edge(id).W
	}
	return w, true
}

// ExistProb returns Pr[E(B)] = Π of the four edge probabilities, the
// probability that all of b's edges appear in a possible world. ok is
// false if b is not a butterfly of g's backbone.
func (b Butterfly) ExistProb(g *bigraph.Graph) (float64, bool) {
	ids, ok := b.EdgeIDs(g)
	if !ok {
		return 0, false
	}
	p := 1.0
	for _, id := range ids {
		p *= g.Edge(id).P
	}
	return p, true
}

// ExistsIn reports whether all four of b's edges are present in world w.
// It returns false if b is not even a backbone butterfly.
func (b Butterfly) ExistsIn(g *bigraph.Graph, w *possible.World) bool {
	ids, ok := b.EdgeIDs(g)
	if !ok {
		return false
	}
	for _, id := range ids {
		if !w.Has(id) {
			return false
		}
	}
	return true
}

// ForEachInWorld enumerates every butterfly present in world w exactly
// once, calling fn with the butterfly and its weight. Enumeration is the
// straightforward common-neighbour method: for each right-vertex pair
// (v1 < v2), every pair of common live neighbours forms a butterfly. This
// is the reference implementation used for ground truth in tests and by
// the exact solver; the MC-VP baseline uses the vertex-priority enumerator
// in vp.go instead. fn returning false stops the enumeration early.
func ForEachInWorld(g *bigraph.Graph, w *possible.World, fn func(b Butterfly, weight float64) bool) {
	// commonWeight[u] accumulates, for the current v1, the weight of the
	// live edge (u, v1); presence is tracked via stamp to avoid clearing.
	numL := g.NumL()
	edgeW := make([]float64, numL)
	stamp := make([]int, numL)
	cur := 0
	for v1 := 0; v1 < g.NumR(); v1++ {
		cur++
		live1 := liveNeighbors(g, w, bigraph.VertexID(v1))
		if len(live1) < 2 {
			continue
		}
		for _, h := range live1 {
			stamp[h.To] = cur
			edgeW[h.To] = g.Edge(h.E).W
		}
		for v2 := v1 + 1; v2 < g.NumR(); v2++ {
			live2 := liveNeighbors(g, w, bigraph.VertexID(v2))
			// Collect common neighbours of v1 and v2.
			var common []bigraph.Half
			for _, h := range live2 {
				if stamp[h.To] == cur {
					common = append(common, h)
				}
			}
			for i := 0; i < len(common); i++ {
				for j := i + 1; j < len(common); j++ {
					u1, u2 := common[i].To, common[j].To
					b := New(u1, u2, bigraph.VertexID(v1), bigraph.VertexID(v2))
					wt, _ := b.Weight(g)
					if !fn(b, wt) {
						return
					}
				}
			}
		}
	}
}

// liveNeighbors returns v's adjacency entries whose edge is present in w.
func liveNeighbors(g *bigraph.Graph, w *possible.World, v bigraph.VertexID) []bigraph.Half {
	var live []bigraph.Half
	for _, h := range g.NeighborsR(v) {
		if w.Has(h.E) {
			live = append(live, h)
		}
	}
	return live
}

// AllBackbone returns every butterfly of the backbone graph (the possible
// world containing all edges), with weights, sorted implicitly by
// enumeration order. Intended for small graphs and tests; the number of
// butterflies can be Θ(|E|²) in dense graphs.
func AllBackbone(g *bigraph.Graph) []WithWeight {
	full := possible.NewWorld(g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		full.Set(bigraph.EdgeID(i))
	}
	var out []WithWeight
	ForEachInWorld(g, full, func(b Butterfly, wt float64) bool {
		out = append(out, WithWeight{B: b, W: wt})
		return true
	})
	return out
}

// WithWeight pairs a butterfly with its (backbone) weight.
type WithWeight struct {
	B Butterfly
	W float64
}

// MaxSet accumulates the set of maximum-weight butterflies S_MB of a
// world (Equation 3): Add keeps only butterflies attaining the running
// maximum weight. The zero value is ready to use.
type MaxSet struct {
	W   float64
	Set []Butterfly
	any bool
}

// Reset empties the set, retaining capacity.
func (m *MaxSet) Reset() {
	m.W = 0
	m.Set = m.Set[:0]
	m.any = false
}

// Add offers a butterfly with the given weight.
func (m *MaxSet) Add(b Butterfly, w float64) {
	switch {
	case !m.any || w > m.W:
		m.W = w
		m.Set = append(m.Set[:0], b)
		m.any = true
	case w == m.W:
		m.Set = append(m.Set, b)
	}
}

// Empty reports whether no butterfly has been added.
func (m *MaxSet) Empty() bool { return !m.any }

// MaxWeightSet computes S_MB(w) by reference enumeration.
func MaxWeightSet(g *bigraph.Graph, w *possible.World) MaxSet {
	var m MaxSet
	ForEachInWorld(g, w, func(b Butterfly, wt float64) bool {
		m.Add(b, wt)
		return true
	})
	return m
}
