// Package bigraph implements the uncertain bipartite weighted network that
// every MPMB algorithm in this repository operates on.
//
// A graph G = (V=(L,R), E, p, w) has two disjoint vertex partitions L and
// R, and every edge (u, v) with u ∈ L, v ∈ R carries a weight w(e) ∈ ℝ and
// an existence probability p(e) ∈ [0, 1] (Definition 1 in the paper).
// Vertices on each side are identified by dense indices 0..|L|-1 and
// 0..|R|-1; the two index spaces are independent.
//
// The package provides:
//
//   - a Builder for incremental, validated construction;
//   - an immutable Graph with CSR adjacency on both sides, so wedge
//     (angle) generation can walk neighbourhoods without allocation;
//   - degree statistics: plain, expected (Σp), and expected-squared
//     degrees, which drive the complexity bounds of Lemmas IV.1 and V.1;
//   - the global vertex-priority order used by the MC-VP baseline;
//   - edge ordering by weight, used by Ordering Sampling;
//   - induced subgraph extraction for the scalability experiment (Fig. 9);
//   - a plain-text interchange format (io.go).
package bigraph

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/uncertain-graphs/mpmb/internal/parallel"
)

// VertexID indexes a vertex within its own partition (L or R).
type VertexID = uint32

// EdgeID indexes an edge in Graph.Edges order.
type EdgeID = uint32

// Edge is a single uncertain weighted edge between U ∈ L and V ∈ R.
type Edge struct {
	U VertexID // left endpoint
	V VertexID // right endpoint
	W float64  // weight
	P float64  // existence probability in [0, 1]
}

// Half is one adjacency entry: the opposite endpoint and the edge it
// belongs to.
type Half struct {
	To VertexID
	E  EdgeID
}

// Graph is an immutable uncertain bipartite weighted network.
// Construct one with a Builder, Load, or FromEdges.
type Graph struct {
	numL, numR int
	edges      []Edge

	lOff []int32 // CSR offsets for the L side, len numL+1
	lAdj []Half
	rOff []int32 // CSR offsets for the R side, len numR+1
	rAdj []Half

	// crc memoizes Checksum: 1<<32 | the CRC once known, 0 before.
	crc atomic.Uint64
}

// Builder accumulates edges and produces a Graph. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	numL, numR int
	edges      []Edge
	seen       map[uint64]struct{}
}

// NewBuilder returns a Builder for a graph with the given partition sizes.
func NewBuilder(numL, numR int) *Builder {
	return &Builder{
		numL: numL,
		numR: numR,
		seen: make(map[uint64]struct{}),
	}
}

func pairKey(u, v VertexID) uint64 { return uint64(u)<<32 | uint64(v) }

// AddEdge appends the edge (u, v) with weight w and probability p.
// It returns an error if either endpoint is out of range, p is outside
// [0, 1], w is NaN or infinite, or the pair (u, v) was already added.
func (b *Builder) AddEdge(u, v VertexID, w, p float64) error {
	if err := b.check(u, v, w, p); err != nil {
		return err
	}
	k := pairKey(u, v)
	if _, dup := b.seen[k]; dup {
		return duplicateError(u, v)
	}
	b.seen[k] = struct{}{}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w, P: p})
	return nil
}

// check applies every rule of AddEdge but the duplicate-pair rule, which
// the parsers apply to the finished graph instead (Graph.repeated).
func (b *Builder) check(u, v VertexID, w, p float64) error {
	if int(u) >= b.numL {
		return fmt.Errorf("bigraph: left vertex %d out of range [0,%d)", u, b.numL)
	}
	if int(v) >= b.numR {
		return fmt.Errorf("bigraph: right vertex %d out of range [0,%d)", v, b.numR)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("bigraph: edge (%d,%d) has non-finite weight %v", u, v, w)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("bigraph: edge (%d,%d) has probability %v outside [0,1]", u, v, p)
	}
	return nil
}

func duplicateError(u, v VertexID) error {
	return fmt.Errorf("bigraph: duplicate edge (%d,%d)", u, v)
}

// parsed ends a parse whose edges passed check. With err nil it builds
// the graph and returns it, unless an edge repeats an earlier pair. With
// err, a fault met after every edge read, it returns err unless an edge
// read so far repeats a pair; it finds that edge by replaying the edges
// through AddEdge, not by a build, whose tables a malformed header can
// make far larger than the edges read. A repeat is the first fault in
// input order either way, reported as "bigraph: <at(id)>: …".
func (b *Builder) parsed(err error, at func(EdgeID) string) (*Graph, error) {
	if err != nil {
		replay := NewBuilder(b.numL, b.numR)
		for i, e := range b.edges {
			if dup := replay.AddEdge(e.U, e.V, e.W, e.P); dup != nil {
				return nil, fmt.Errorf("bigraph: %s: %w", at(EdgeID(i)), dup)
			}
		}
		return nil, err
	}
	g := b.build()
	if id, ok := g.repeated(); ok {
		e := g.edges[id]
		return nil, fmt.Errorf("bigraph: %s: %w", at(id), duplicateError(e.U, e.V))
	}
	return g, nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// hand-written example graphs.
func (b *Builder) MustAddEdge(u, v VertexID, w, p float64) {
	if err := b.AddEdge(u, v, w, p); err != nil {
		panic(err)
	}
}

// NumEdges reports how many edges have been added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the graph. The Builder remains usable (further AddEdge
// calls affect only future Build results).
func (b *Builder) Build() *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	return newGraph(b.numL, b.numR, edges)
}

// build finalizes the graph with the Builder's own edge slice, for
// callers that discard the Builder afterwards: it saves Build's copy of
// the edge table.
func (b *Builder) build() *Graph { return newGraph(b.numL, b.numR, b.edges) }

// reserve makes room for one more edge when the edge slice is full and
// holds fewer than limit edges: it starts at 1<<16 edges and doubles, but
// never past limit. A parser that knows a vetted declared count grows its
// builder this way instead of through append, so an honest count leaves
// no spare capacity for the Graph to keep, and a count that overstates
// the input costs at most twice the edges actually read, or 2 MiB.
func (b *Builder) reserve(limit int) {
	if n := len(b.edges); n == cap(b.edges) && n < limit {
		edges := make([]Edge, n, min(max(2*n, 1<<16), limit))
		copy(edges, b.edges)
		b.edges = edges
	}
}

// FromEdges constructs a graph directly from an edge slice, applying the
// same validation as Builder.AddEdge. The slice is copied.
func FromEdges(numL, numR int, edges []Edge) (*Graph, error) {
	b := NewBuilder(numL, numR)
	b.edges = make([]Edge, 0, len(edges))
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W, e.P); err != nil {
			return nil, err
		}
	}
	return b.build(), nil
}

// newGraph builds the CSR indexes. edges is owned by the new Graph and
// holds no pair twice, unless the caller checks the Graph with repeated
// before handing it out.
//
// Each adjacency row comes out sorted by opposite endpoint, so FindEdge
// can binary search and iteration order is deterministic regardless of
// insertion order, without a sort: the edges are first bucketed into
// right rows in id order; walking the right rows in vertex order then
// fills every left row in ascending right endpoint, and walking the left
// rows in vertex order refills every right row in ascending left
// endpoint.
func newGraph(numL, numR int, edges []Edge) *Graph {
	g := &Graph{
		numL:  numL,
		numR:  numR,
		edges: edges,
		lOff:  make([]int32, numL+1),
		rOff:  make([]int32, numR+1),
	}
	for _, e := range edges {
		g.lOff[e.U+1]++
		g.rOff[e.V+1]++
	}
	for i := 0; i < numL; i++ {
		g.lOff[i+1] += g.lOff[i]
	}
	for i := 0; i < numR; i++ {
		g.rOff[i+1] += g.rOff[i]
	}
	g.lAdj = make([]Half, len(edges))
	g.rAdj = make([]Half, len(edges))
	next := make([]int32, max(numL, numR))
	copy(next, g.rOff[:numR])
	for id, e := range edges {
		g.rAdj[next[e.V]] = Half{To: e.U, E: EdgeID(id)}
		next[e.V]++
	}
	transposeRows(g.lAdj, g.lOff, g.rAdj, g.rOff, next)
	transposeRows(g.rAdj, g.rOff, g.lAdj, g.lOff, next)
	return g
}

// transposeRows fills the CSR rows dst/dstOff from the rows src/srcOff
// of the other side: walking the source vertices in order, it appends
// (source vertex, edge) to the row of each neighbour, so every
// destination row comes out sorted by To. next is scratch of at least
// len(dstOff)-1 entries.
func transposeRows(dst []Half, dstOff []int32, src []Half, srcOff []int32, next []int32) {
	copy(next, dstOff[:len(dstOff)-1])
	for x := 0; x+1 < len(srcOff); x++ {
		for _, h := range src[srcOff[x]:srcOff[x+1]] {
			dst[next[h.To]] = Half{To: VertexID(x), E: h.E}
			next[h.To]++
		}
	}
}

// repeated returns the first edge, in id order, whose pair an earlier
// edge already holds, as Builder.AddEdge would have refused it. newGraph
// sorts each left row by right endpoint and keeps equal endpoints in id
// order, so the copies of a pair sit side by side and the second copy is
// the later of the first two.
func (g *Graph) repeated() (EdgeID, bool) {
	first, found := EdgeID(0), false
	for u := 0; u < g.numL; u++ {
		row := g.lAdj[g.lOff[u]:g.lOff[u+1]]
		for k := 1; k < len(row); k++ {
			if row[k].To == row[k-1].To && (!found || row[k].E < first) {
				first, found = row[k].E, true
			}
		}
	}
	return first, found
}

// FindEdge returns the id of the edge (u, v) if it exists in the backbone
// graph. It binary-searches the shorter endpoint's adjacency row.
func (g *Graph) FindEdge(u, v VertexID) (EdgeID, bool) {
	if int(u) >= g.numL || int(v) >= g.numR {
		return 0, false
	}
	var row []Half
	var want VertexID
	if g.DegreeL(u) <= g.DegreeR(v) {
		row, want = g.NeighborsL(u), v
	} else {
		row, want = g.NeighborsR(v), u
	}
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].To < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].To == want {
		return row[lo].E, true
	}
	return 0, false
}

// NumL returns |L|.
func (g *Graph) NumL() int { return g.numL }

// NumR returns |R|.
func (g *Graph) NumR() int { return g.numR }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the underlying edge slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// NeighborsL returns the adjacency list of left vertex u. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) NeighborsL(u VertexID) []Half {
	return g.lAdj[g.lOff[u]:g.lOff[u+1]]
}

// NeighborsR returns the adjacency list of right vertex v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) NeighborsR(v VertexID) []Half {
	return g.rAdj[g.rOff[v]:g.rOff[v+1]]
}

// DegreeL returns deg(u) for u ∈ L.
func (g *Graph) DegreeL(u VertexID) int { return int(g.lOff[u+1] - g.lOff[u]) }

// DegreeR returns deg(v) for v ∈ R.
func (g *Graph) DegreeR(v VertexID) int { return int(g.rOff[v+1] - g.rOff[v]) }

// ExpectedDegreeL returns d̄(u) = Σ_{e=(u,·)} p(e), the expected degree of
// left vertex u over possible worlds.
func (g *Graph) ExpectedDegreeL(u VertexID) float64 {
	s := 0.0
	for _, h := range g.NeighborsL(u) {
		s += g.edges[h.E].P
	}
	return s
}

// ExpectedDegreeR returns d̄(v) for v ∈ R.
func (g *Graph) ExpectedDegreeR(v VertexID) float64 {
	s := 0.0
	for _, h := range g.NeighborsR(v) {
		s += g.edges[h.E].P
	}
	return s
}

// ExpectedSquaredDegreeL returns E[deg(u)²] for left vertex u, where
// deg(u) is the Binomial-like sum of independent edge indicators:
// E[d²] = Var + (E[d])² = Σ p(1-p) + (Σ p)². This quantity appears in the
// per-trial complexity of Ordering Sampling (Lemma V.1).
func (g *Graph) ExpectedSquaredDegreeL(u VertexID) float64 {
	mean, vr := 0.0, 0.0
	for _, h := range g.NeighborsL(u) {
		p := g.edges[h.E].P
		mean += p
		vr += p * (1 - p)
	}
	return vr + mean*mean
}

// ExpectedSquaredDegreeR returns E[deg(v)²] for right vertex v.
func (g *Graph) ExpectedSquaredDegreeR(v VertexID) float64 {
	mean, vr := 0.0, 0.0
	for _, h := range g.NeighborsR(v) {
		p := g.edges[h.E].P
		mean += p
		vr += p * (1 - p)
	}
	return vr + mean*mean
}

// EdgesByWeightDesc returns edge ids sorted by descending weight, breaking
// ties by ascending id so the order is deterministic. This is the edge
// ordering of Algorithm 2 line 1. −0 and +0 tie, as they compare equal.
//
// The order comes from a stable LSD radix sort, one byte per pass, over
// order-preserving uint64 keys (weightKey): the passes start from id
// order and keep ties in their previous order, so equal weights end in
// ascending id. A pass is skipped when every key shares its byte.
// AddEdge rejects NaN and ±Inf, so every key is that of a finite weight.
// The passes run on GOMAXPROCS goroutines (edgesByWeightDesc).
func (g *Graph) EdgesByWeightDesc() []EdgeID {
	return g.edgesByWeightDesc(runtime.GOMAXPROCS(0))
}

// edgesByWeightDesc is EdgesByWeightDesc on up to workers goroutines. The
// keys are cut into the same contiguous segments in every pass: each
// segment counts its keys' bytes, and then all segments scatter at once,
// each from offsets past every key of a smaller byte and past the keys
// of the same byte in earlier segments. So every key lands where a
// sequential pass puts it, whatever the number of segments.
func (g *Graph) edgesByWeightDesc(workers int) []EdgeID {
	n := len(g.edges)
	segs := parallel.Parts(n, workers)
	keys, ids := make([]uint64, n), make([]EdgeID, n)
	// count[s][d][b] counts the keys of segment s whose byte d is b. The
	// first counts are taken in id order; they stay valid for a single
	// segment and for the totals, which no pass changes.
	count := make([][8][256]int, segs)
	parallel.Do(segs, func(s int) {
		lo, hi := parallel.Range(n, segs, s)
		c := &count[s]
		for i := lo; i < hi; i++ {
			k := weightKey(g.edges[i].W)
			keys[i], ids[i] = k, EdgeID(i)
			for d := range c {
				c[d][byte(k>>(8*d))]++
			}
		}
	})
	keys2, ids2 := make([]uint64, n), make([]EdgeID, n)
	next := make([][256]int, segs)
	moved := false // a pass has reordered the keys since count was taken
	for d := range 8 {
		shift := 8 * d
		var total [256]int
		for s := range count {
			for b, c := range count[s][d] {
				total[b] += c
			}
		}
		if n == 0 || total[byte(keys[0]>>shift)] == n {
			continue
		}
		if moved && segs > 1 {
			parallel.Do(segs, func(s int) {
				lo, hi := parallel.Range(n, segs, s)
				c := &count[s][d]
				clear(c[:])
				for _, k := range keys[lo:hi] {
					c[byte(k>>shift)]++
				}
			})
		}
		for b, sum := 0, 0; b < 256; b++ {
			for s := range next {
				next[s][b], sum = sum, sum+count[s][d][b]
			}
		}
		parallel.Do(segs, func(s int) {
			lo, hi := parallel.Range(n, segs, s)
			nx := &next[s]
			for i := lo; i < hi; i++ {
				k := keys[i]
				j := &nx[byte(k>>shift)]
				keys2[*j], ids2[*j] = k, ids[i]
				*j++
			}
		})
		keys, keys2 = keys2, keys
		ids, ids2 = ids2, ids
		moved = true
	}
	return ids
}

// weightKey maps a finite weight to a uint64 that sorts ascending as the
// weight descends: the bits of a negative weight already grow with its
// magnitude, and a non-negative weight's bits are inverted below the sign
// bit. −0 is canonicalized to +0 first, so the two share a key.
func weightKey(w float64) uint64 {
	if w == 0 {
		w = 0
	}
	b := math.Float64bits(w)
	if b>>63 != 0 {
		return b
	}
	return b ^ (1<<63 - 1)
}

// TopWeightSum returns the sum of the k largest edge weights, or the sum
// of all weights if the graph has fewer than k edges. Ordering Sampling
// uses k=3: w̄ = w(e₁)+w(e₂)+w(e₃) bounds how much any angle-plus-edge can
// still add to a butterfly (Section V-B).
func (g *Graph) TopWeightSum(k int) float64 {
	if k <= 0 {
		return 0
	}
	top := make([]float64, 0, k)
	for _, e := range g.edges {
		if len(top) < k {
			top = append(top, e.W)
			if len(top) == k {
				sort.Float64s(top)
			}
			continue
		}
		if e.W > top[0] {
			top[0] = e.W
			// Re-sift the smallest slot; k is tiny (3), a scan is fine.
			for i := 1; i < k && top[i] < top[i-1]; i++ {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
	s := 0.0
	for _, w := range top {
		s += w
	}
	return s
}

// MaxWeight returns the largest edge weight, or 0 for an empty graph.
func (g *Graph) MaxWeight() float64 {
	m := math.Inf(-1)
	for _, e := range g.edges {
		if e.W > m {
			m = e.W
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}
