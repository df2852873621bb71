package core

import (
	"math"
	"sync"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// rngBlock is the batch width of the kernel's block RNG generation: raw
// generator words are produced rngBlock snapshot positions at a time and
// turned into a presence bitmask by branch-free threshold subtraction
// (see runTrialRNG). 64 positions fit exactly one mask word, and a
// 64-word buffer stays comfortably on the stack.
const (
	rngBlock      = 64
	rngBlockShift = 6
)

// edgeSnapshot is the struct-of-arrays view of a graph the flat OS trial
// kernel scans: one parallel slice per field, in descending-weight order
// (Algorithm 2 line 1), so a trial walks contiguous memory instead of
// chasing edge ids through the AoS edge table. The Bernoulli threshold of
// every edge is precomputed once per snapshot (randx.BernoulliThreshold),
// turning per-edge presence into a shift-and-compare against one raw
// generator word — with draw-for-draw identical semantics to
// randx.Bernoulli, so Results stay bit-identical to the seed
// implementation.
//
// The snapshot also carries the flat N̂_E layout: right vertex v's live
// already-processed edges occupy liveFlat[liveOff[v] : liveOff[v]+len],
// where the region capacity is v's degree within the snapshot — the most
// live edges v can ever accumulate in one trial — so per-trial
// bookkeeping never allocates.
//
// The snapshot is immutable after snapshotFor returns and is shared by
// every kernel over the same graph (see snapshotFor): it additionally
// precomputes, from per-edge butterfly support counts, the
// batched-RNG draw schedule (admitTh, wordOf, ndraws) and the
// support-sharpened prune budgets (wBarS, wBar2S).
type edgeSnapshot struct {
	w      []float64          // edge weight, descending
	prt    []bigraph.VertexID // pairing endpoint (outer side of the angle)
	ctr    []bigraph.VertexID // center endpoint (middle side, owns the live lists)
	pc     []uint64           // uint64(prt)<<32 | uint64(ctr): both endpoints in one load
	id     []bigraph.EdgeID   // original edge id (oracle path, butterflies)
	thresh []uint64           // randx.BernoulliThreshold of the edge's p

	wBar float64 // w(e1)+w(e2)+w(e3), the Section V-B prune budget

	// flip selects which side the angle middles live on. An angle is two
	// present edges sharing a middle vertex; a butterfly is two angles
	// sharing the same outer pair with distinct middles — the definition
	// is side-symmetric, so the kernel may center its live lists on
	// either side and produce the same butterfly set. The build centers
	// on the side with the smaller expected pair-work Σ d̄(x)² (d̄ = sum
	// of incident edge probabilities) — the wing-decomposition /
	// vertex-priority side-selection rule — which on skewed graphs cuts
	// the per-trial angle count by orders of magnitude. flip=false
	// centers on the right side (middles are right vertices, the seed
	// implementation's fixed choice); flip=true centers on the left.
	flip bool

	// anchor is set on an anchored snapshot (see newAnchoredSnapshot): it
	// holds only the edges of the backbone butterflies through the anchor,
	// its pairing side is the anchor's side, and pin is the anchor's
	// vertex on that side. Its kernels run the per-position loop with the
	// anchored admission rule (see admitEdge).
	anchor Anchor
	pin    bigraph.VertexID

	liveOff []int32 // per center vertex offset into liveFlat, len numCenter+1

	// tok holds one fixed random 64-bit token per pairing-side vertex.
	// The angle table hashes an endpoint pair as tok[a]^tok[b] (Zobrist
	// hashing): two L1 loads and an XOR, symmetric in the pair so the
	// kernel needs no canonical ordering before hashing, and cheaper than
	// running the packed key through a multiply-based finalizer on every
	// angle.
	tok []uint64

	// admitTh is the batched-admission threshold of each position,
	// normalized into [0, 2^53] so one branch-free comparison per edge
	// decides admission: a position is admitted iff word>>11 < admitTh.
	// p <= 0 and support-0 edges map to 0 (word>>11 < 0 is never true),
	// p >= 1 maps to 2^53 (word>>11 <= 2^53-1 < 2^53 is always true),
	// and p in (0, 1) keeps its BernoulliThreshold in [1, 2^53].
	//
	// An edge's support is the exact number of backbone butterflies
	// (4-cycles) containing it, counted once at build in the
	// wing-decomposition style (edgeSupport: wedge counts from the cheaper
	// side; cf. ParButterfly's wing ordering). An edge with support 0 lies
	// on no backbone butterfly, so no possible world can materialize a
	// butterfly through it: the kernel never admits it, though the edge
	// still consumes its Bernoulli draw so the word schedule of every later
	// edge is unchanged.
	admitTh []uint64

	// wordOf[i] is the index, within position i's rngBlock-wide block, of
	// the raw generator word position i compares against: the count of
	// draw-consuming (p in (0,1)) positions between the block start and i.
	// Deterministic positions point at the next undetermined position's
	// word (or one past the block's words — a garbage slot the kernel
	// provides); their admitTh sentinel decides regardless of the word's
	// value, so the read is harmless and the loop stays branch-free.
	wordOf []uint8

	// ndraws[b] is how many raw words block b consumes: the number of
	// p in (0,1) positions in [b*rngBlock, min((b+1)*rngBlock, n)).
	ndraws []uint8

	// wBarS / wBar2S are the support-sharpened prune budgets: the sum of
	// the three (resp. two) largest weights among support-positive edges.
	// Every edge of any butterfly is support-positive, so any butterfly
	// containing the edge at position i weighs at most w[i]+wBarS, and
	// any butterfly completing a given angle weighs at most the angle's
	// weight plus wBar2S — both bounds strict below the running w_max
	// certify that skipping the position/angle cannot change the Result.
	wBarS  float64
	wBar2S float64

	// barren reports that no edge has butterfly support: the backbone
	// contains no 4-cycle, so every trial's maximum set is empty and the
	// kernel returns immediately.
	barren bool

	// kernels recycles osIndex instances built over this snapshot, so a
	// run (or a parallel worker) that needs a kernel for an already-seen
	// graph reuses the previous run's allocations instead of rebuilding
	// ~1MB of per-kernel scratch. Kernels are only ever pooled with their
	// own snapshot, so a pooled kernel always matches the graph.
	kernels sync.Pool
}

// liveEdge is one flat N̂_E entry: a live, already-processed edge incident
// to the region's center vertex. The weight and the pairing endpoint's
// Zobrist token ride along so angle formation (∠ = e_a ⊕ e_b) and the
// angle-table hash read everything from the same cache line instead of
// re-fetching the AoS edge record and the token array.
type liveEdge struct {
	to  bigraph.VertexID // pairing endpoint
	w   float64
	tok uint64 // snap.tok[to]
}

func newEdgeSnapshot(g *bigraph.Graph) *edgeSnapshot {
	// Side selection: center the live middle lists on the side with the
	// smaller expected pair-work Σ_x d̄(x)² — the number of angles a trial
	// forms is Σ over center vertices of C(present degree, 2).
	var workL, workR float64
	for u := 0; u < g.NumL(); u++ {
		d := g.ExpectedDegreeL(bigraph.VertexID(u))
		workL += d * d
	}
	for v := 0; v < g.NumR(); v++ {
		d := g.ExpectedDegreeR(bigraph.VertexID(v))
		workR += d * d
	}
	s := layoutSnapshot(g, g.EdgesByWeightDesc(), workL < workR)
	n := s.numEdges()

	// Per-edge butterfly support, then the support-dependent kernel
	// tables: normalized admission thresholds, the block draw schedule,
	// and the sharpened prune budgets.
	sup := edgeSupport(g)
	s.admitTh = make([]uint64, n)
	s.wordOf = make([]uint8, n)
	s.ndraws = make([]uint8, (n+rngBlock-1)/rngBlock)
	var draws uint8 // draw-consuming positions so far in the current block
	for i := 0; i < n; i++ {
		if i&(rngBlock-1) == 0 {
			draws = 0
		}
		s.wordOf[i] = draws
		th := s.thresh[i]
		if th != randx.BernoulliNever && th != randx.BernoulliAlways {
			draws++
		}
		s.ndraws[i>>rngBlockShift] = draws
		switch {
		case sup[s.id[i]] == 0 || th == randx.BernoulliNever:
			s.admitTh[i] = 0
		case th == randx.BernoulliAlways:
			s.admitTh[i] = 1 << 53
		default:
			s.admitTh[i] = th
		}
	}
	// Top-3/top-2 support-positive weights: positions are already weight
	// descending, so the first three support-positive positions are the
	// maxima.
	var top [3]float64
	found := 0
	for i := 0; i < n && found < 3; i++ {
		if sup[s.id[i]] > 0 {
			top[found] = s.w[i]
			found++
		}
	}
	s.barren = found == 0
	s.wBarS = top[0] + top[1] + top[2]
	s.wBar2S = top[0] + top[1]
	return s
}

// layoutSnapshot lays out the edges ids, given in the global
// weight-descending order, as a snapshot centered on the left side when
// flip is set: the per-position fields, the Section V-B budget w̄ of its
// three heaviest edges, the per-center live regions and the pairing
// tokens. The global snapshot adds its support tables on top; an
// anchored snapshot (newAnchoredSnapshot) is this layout alone.
func layoutSnapshot(g *bigraph.Graph, ids []bigraph.EdgeID, flip bool) *edgeSnapshot {
	n := len(ids)
	s := &edgeSnapshot{
		w:      make([]float64, n),
		prt:    make([]bigraph.VertexID, n),
		ctr:    make([]bigraph.VertexID, n),
		pc:     make([]uint64, n),
		id:     ids,
		thresh: make([]uint64, n),
		flip:   flip,
	}
	numCtr, numPrt := g.NumR(), g.NumL()
	if flip {
		numCtr, numPrt = g.NumL(), g.NumR()
	}
	// A center's live region holds at most its snapshot degree; count
	// those into liveOff[c+1], then prefix-sum them into offsets.
	s.liveOff = make([]int32, numCtr+1)
	for i, eid := range ids {
		e := g.Edge(eid)
		s.w[i] = e.W
		if flip {
			s.prt[i], s.ctr[i] = e.V, e.U
		} else {
			s.prt[i], s.ctr[i] = e.U, e.V
		}
		s.pc[i] = uint64(s.prt[i])<<32 | uint64(s.ctr[i])
		s.thresh[i] = randx.BernoulliThreshold(e.P)
		s.liveOff[s.ctr[i]+1]++
	}
	for c := 0; c < numCtr; c++ {
		s.liveOff[c+1] += s.liveOff[c]
	}
	// w̄ adds the three heaviest weights lightest first, exactly as
	// bigraph's TopWeightSum(3) does, so the budget is the same float.
	for i := min(n, 3) - 1; i >= 0; i-- {
		s.wBar += s.w[i]
	}
	s.tok = make([]uint64, numPrt)
	for u := range s.tok {
		sm := uint64(u) ^ 0x6a09e667f3bcc908 // fixed salt; any constant works
		s.tok[u] = randx.SplitMix64(&sm)
	}
	return s
}

// numEdges returns the snapshot length.
func (s *edgeSnapshot) numEdges() int { return len(s.id) }

// edgeSupport counts, for every backbone edge, the backbone butterflies
// (4-cycles) containing it. The count is exact; values saturate at
// MaxInt32.
//
// The algorithm is the wedge-counting discipline of wing decomposition
// (ParButterfly): fix a center vertex x on one side; wedgeCount tallies
// cnt[y] = |N(x) ∩ N(y)| for every same-side vertex y; a second pass then
// charges each edge (x, m) with Σ_{y ∈ N(m), y ≠ x} (cnt[y] − 1) — the
// number of butterflies {x, y, m, m'} through (x, m). Total work is Σ over
// the opposite side's degrees squared, so the center side is chosen to
// minimize it (the same side-selection rule wing decomposition uses).
func edgeSupport(g *bigraph.Graph) []int32 {
	sup := make([]int32, g.NumEdges())
	var sumL2, sumR2 int64
	for u := 0; u < g.NumL(); u++ {
		d := int64(g.DegreeL(bigraph.VertexID(u)))
		sumL2 += d * d
	}
	for v := 0; v < g.NumR(); v++ {
		d := int64(g.DegreeR(bigraph.VertexID(v)))
		sumR2 += d * d
	}
	// Left centers walk right neighbourhoods (cost Σ_R d²), right centers
	// left ones (cost Σ_L d²).
	nbr, opp, n := g.NeighborsL, g.NeighborsR, g.NumL()
	if sumR2 > sumL2 {
		nbr, opp, n = g.NeighborsR, g.NeighborsL, g.NumR()
	}
	cnt := make([]int32, n)
	for c := 0; c < n; c++ {
		x := bigraph.VertexID(c)
		wedgeCount(x, nbr, opp, cnt)
		for _, h := range nbr(x) {
			var k int64
			for _, h2 := range opp(h.To) {
				if h2.To != x {
					k += int64(cnt[h2.To] - 1)
				}
			}
			sup[h.E] = satInt32(k)
		}
		for _, h := range nbr(x) {
			for _, h2 := range opp(h.To) {
				cnt[h2.To] = 0
			}
		}
	}
	return sup
}

// wedgeCount adds one to cnt[y] per wedge (x, m, y) with y ≠ x, which on
// zeroed counts leaves cnt[y] = |N(x) ∩ N(y)|. nbr lists the adjacency
// of x's side and opp that of the other side.
func wedgeCount(x bigraph.VertexID, nbr, opp func(bigraph.VertexID) []bigraph.Half, cnt []int32) {
	for _, h := range nbr(x) {
		for _, h2 := range opp(h.To) {
			if h2.To != x {
				cnt[h2.To]++
			}
		}
	}
}

func satInt32(v int64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// snapCache memoizes snapshots per graph, keyed by graph identity
// (graphs are immutable). Capacity is small — the cache exists so
// repeated runs, parallel workers and pooled service jobs over the same
// few graphs stop rebuilding ~1MB of SoA tables plus the support counts
// per kernel — and old entries fall off the MRU tail, so at most
// snapCacheCap graphs are kept alive by it.
const snapCacheCap = 4

var snapCache struct {
	sync.Mutex
	entries []snapCacheEntry
}

type snapCacheEntry struct {
	g *bigraph.Graph
	s *edgeSnapshot
}

// snapshotFor returns the snapshot for g, building it on the first
// request. Building (layout and support counting) happens outside the
// cache lock, so concurrent first requests for the same graph may build
// duplicates — each interchangeable; one of them wins the cache slot.
func snapshotFor(g *bigraph.Graph) *edgeSnapshot {
	if s := cachedSnapshot(g); s != nil {
		return s
	}
	s := newEdgeSnapshot(g)

	snapCache.Lock()
	defer snapCache.Unlock()
	for i := range snapCache.entries {
		if snapCache.entries[i].g == g {
			return snapCache.entries[i].s // lost the build race; use the winner
		}
	}
	snapCache.entries = append(snapCache.entries, snapCacheEntry{})
	copy(snapCache.entries[1:], snapCache.entries)
	snapCache.entries[0] = snapCacheEntry{g: g, s: s}
	if len(snapCache.entries) > snapCacheCap {
		snapCache.entries = snapCache.entries[:snapCacheCap]
	}
	return s
}

// cachedSnapshot returns g's cached snapshot, or nil without building
// one.
func cachedSnapshot(g *bigraph.Graph) *edgeSnapshot {
	snapCache.Lock()
	defer snapCache.Unlock()
	for i := range snapCache.entries {
		if snapCache.entries[i].g == g {
			e := snapCache.entries[i]
			copy(snapCache.entries[1:i+1], snapCache.entries[:i])
			snapCache.entries[0] = e
			return e.s
		}
	}
	return nil
}

// edgeThresholds precomputes the Bernoulli threshold of every backbone
// edge, indexed by edge id. The candidate estimators (Algorithms 4 and 5)
// sample edges by id rather than in weight order, so they share this
// id-indexed table instead of the weight-ordered snapshot.
func edgeThresholds(g *bigraph.Graph) []uint64 {
	th := make([]uint64, g.NumEdges())
	for i := range th {
		th[i] = randx.BernoulliThreshold(g.Edge(bigraph.EdgeID(i)).P)
	}
	return th
}
