// Package possible implements possible worlds of an uncertain bipartite
// network (Definition 2 in the paper).
//
// A possible world keeps the vertex set of the backbone graph and retains
// each edge e independently with probability p(e). The package offers
//
//   - World: a compact edge bitset with O(1) membership tests;
//   - Sample: Bernoulli sampling of one world from a Graph;
//   - Enumerate: exhaustive enumeration of all 2^|E| worlds together with
//     their probabilities, used as ground truth in tests and by the exact
//     MPMB solver on small inputs;
//   - Prob: the probability of a concrete world under the graph's edge
//     distribution (Equation 1).
package possible

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// World is a set of edge ids, stored as a bitset indexed by EdgeID.
type World struct {
	bits []uint64
	n    int // number of edges in the backbone graph
}

// NewWorld returns an empty world over a backbone graph with numEdges
// edges.
func NewWorld(numEdges int) *World {
	return &World{bits: make([]uint64, (numEdges+63)/64), n: numEdges}
}

// NumBackboneEdges returns the size of the edge universe.
func (w *World) NumBackboneEdges() int { return w.n }

// Has reports whether edge id is present.
func (w *World) Has(id bigraph.EdgeID) bool {
	return w.bits[id/64]&(1<<(id%64)) != 0
}

// Set adds edge id to the world.
func (w *World) Set(id bigraph.EdgeID) {
	w.bits[id/64] |= 1 << (id % 64)
}

// Clear removes edge id from the world.
func (w *World) Clear(id bigraph.EdgeID) {
	w.bits[id/64] &^= 1 << (id % 64)
}

// Reset empties the world in place.
func (w *World) Reset() {
	for i := range w.bits {
		w.bits[i] = 0
	}
}

// Count returns the number of edges present.
func (w *World) Count() int {
	c := 0
	for _, b := range w.bits {
		c += popcount(b)
	}
	return c
}

func popcount(x uint64) int {
	// Kernighan would be slower; use the SWAR popcount.
	x = x - ((x >> 1) & 0x5555555555555555)
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}

// Clone returns an independent copy of the world.
func (w *World) Clone() *World {
	c := &World{bits: make([]uint64, len(w.bits)), n: w.n}
	copy(c.bits, w.bits)
	return c
}

// Equal reports whether two worlds over the same universe hold the same
// edges.
func (w *World) Equal(o *World) bool {
	if w.n != o.n {
		return false
	}
	for i := range w.bits {
		if w.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// SampleInto fills dst with a fresh Bernoulli sample of g's edges using
// rng, reusing dst's storage. dst must have been created for g's edge
// count.
func SampleInto(dst *World, g *bigraph.Graph, rng *randx.RNG) {
	if dst.n != g.NumEdges() {
		panic(fmt.Sprintf("possible: world sized for %d edges, graph has %d", dst.n, g.NumEdges()))
	}
	dst.Reset()
	for id, e := range g.Edges() {
		if rng.Bernoulli(e.P) {
			dst.Set(bigraph.EdgeID(id))
		}
	}
}

// Sample draws one possible world of g.
func Sample(g *bigraph.Graph, rng *randx.RNG) *World {
	w := NewWorld(g.NumEdges())
	SampleInto(w, g, rng)
	return w
}

// Prob returns the probability of the concrete world w under g's edge
// distribution: Π_{e∈w} p(e) · Π_{e∉w} (1−p(e)) (Equation 1).
func Prob(g *bigraph.Graph, w *World) float64 {
	p := 1.0
	for id, e := range g.Edges() {
		if w.Has(bigraph.EdgeID(id)) {
			p *= e.P
		} else {
			p *= 1 - e.P
		}
	}
	return p
}

// MaxEnumerableEdges bounds Enumerate: 2^24 worlds is already ~16M
// iterations; anything above is almost certainly a mistake.
const MaxEnumerableEdges = 24

// Enumerate calls fn for every possible world of g along with its
// probability. The World passed to fn is reused between calls; clone it if
// it must outlive the callback. fn returning false stops the enumeration.
// Enumerate returns an error if the graph has more than
// MaxEnumerableEdges edges.
//
// Worlds with probability exactly zero are still visited (their
// contribution to any aggregate is zero), keeping the iteration count
// predictable at exactly 2^|E|.
func Enumerate(g *bigraph.Graph, fn func(w *World, prob float64) bool) error {
	m := g.NumEdges()
	if m > MaxEnumerableEdges {
		return fmt.Errorf("possible: refusing to enumerate 2^%d worlds (limit 2^%d)", m, MaxEnumerableEdges)
	}
	w := NewWorld(m)
	edges := g.Edges()
	var rec func(i int, prob float64) bool
	rec = func(i int, prob float64) bool {
		if i == m {
			return fn(w, prob)
		}
		p := edges[i].P
		// Branch: edge absent.
		if !rec(i+1, prob*(1-p)) {
			return false
		}
		// Branch: edge present.
		w.Set(bigraph.EdgeID(i))
		ok := rec(i+1, prob*p)
		w.Clear(bigraph.EdgeID(i))
		return ok
	}
	rec(0, 1.0)
	return nil
}
