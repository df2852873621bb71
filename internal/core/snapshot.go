package core

import (
	"runtime"
	"sync"
	"sync/atomic"

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
// precomputes, from one butterfly-membership bit per edge (does the edge
// lie on any backbone butterfly?), the batched-RNG draw schedule
// (admitTh, wordOf, ndraws) and the support-sharpened prune budgets
// (wBarS, wBar2S).
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

	liveOff []int32 // per center vertex offset into liveFlat, len numCenter+1

	// tok holds one fixed random 64-bit token per vertex index, enough
	// for either side.
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
	// An edge has support when it lies on at least one backbone butterfly
	// (4-cycle), decided once at build from wedge counts on the cheaper
	// side (butterflyEdges; cf. ParButterfly's wing ordering). A
	// support-0 edge lies on no backbone butterfly, so no possible world
	// can materialize a butterfly through it: the kernel never admits it,
	// though the edge still consumes its Bernoulli draw so the word
	// schedule of every later edge is unchanged.
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
	// ~1MB of per-kernel scratch. Anchored jobs borrow from the same pool:
	// their kernels scan this snapshot through the job's view
	// (anchoredView), so every pooled kernel fits every job on the graph.
	kernels sync.Pool

	// rank maps an edge id to its position here, and random marks the
	// positions whose p ∈ (0,1), one bit each, for anchored views and
	// their trials; positions builds both once, on the first anchored job.
	rankOnce sync.Once
	rank     []int32
	random   []uint64
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
	flip := workL < workR
	ids := g.EdgesByWeightDesc()
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
	numCtr := g.NumR()
	if flip {
		numCtr = g.NumL()
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
	for c := 1; c < len(s.liveOff); c++ {
		s.liveOff[c] += s.liveOff[c-1]
	}
	// w̄: the three heaviest weights, added lightest first, as bigraph's
	// TopWeightSum(3) adds them, so the budget is the same float.
	for i := min(n, 3) - 1; i >= 0; i-- {
		s.wBar += s.w[i]
	}
	// One token per vertex index of the larger side: a token depends on
	// the index alone, so either side may hash through this same table.
	s.tok = make([]uint64, max(g.NumL(), g.NumR()))
	for u := range s.tok {
		sm := uint64(u) ^ 0x6a09e667f3bcc908 // fixed salt; any constant works
		s.tok[u] = randx.SplitMix64(&sm)
	}

	// Per-edge butterfly membership, then the support-dependent kernel
	// tables: normalized admission thresholds, the block draw schedule,
	// and the sharpened prune budgets.
	on := butterflyEdges(g, runtime.GOMAXPROCS(0))
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
		case !on[s.id[i]] || th == randx.BernoulliNever:
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
		if on[s.id[i]] {
			top[found] = s.w[i]
			found++
		}
	}
	s.barren = found == 0
	s.wBarS = top[0] + top[1] + top[2]
	s.wBar2S = top[0] + top[1]
	return s
}

// positions returns the id → position rank of the global snapshot s,
// and builds s.random with it. Both are built on the graph's first
// anchored job (newAnchoredView) rather than with the snapshot, since
// global jobs never read them.
func (s *edgeSnapshot) positions() []int32 {
	s.rankOnce.Do(func() {
		s.rank = make([]int32, len(s.id))
		s.random = make([]uint64, len(s.ndraws))
		for p, id := range s.id {
			s.rank[id] = int32(p)
			if th := s.thresh[p]; th != randx.BernoulliNever && th != randx.BernoulliAlways {
				s.random[p>>rngBlockShift] |= 1 << (p & (rngBlock - 1))
			}
		}
	})
	return s.rank
}

// numEdges returns the snapshot length.
func (s *edgeSnapshot) numEdges() int { return len(s.id) }

// butterflyEdges reports, for every backbone edge, whether it lies on at
// least one backbone butterfly (4-cycle).
//
// It fixes a center vertex x on one side and decides the edges (x, m) to
// its middles m. A witness pass (witnessEdges) first marks the edges it
// finds on a butterfly from one shared second vertex each, which settles
// nearly every center. A center it leaves open runs the exact pass, the
// wedge-counting discipline of wing decomposition (ParButterfly) without
// the count: wedgeCount tallies cnt[y] = |N(x) ∩ N(y)| for every
// same-side vertex y; the edge (x, m) then lies on a butterfly
// {x, y, m, m'} exactly when some y ∈ N(m), y ≠ x, shares a second
// middle m' with x, so the scan of N(m) stops at the first y with
// cnt[y] ≥ 2. Either pass costs at most Σ over the opposite side's
// degrees squared, so the center side is chosen to minimize it (the same
// side-selection rule wing decomposition uses).
//
// The exact pass then re-zeroes the counts for the next center, at no
// more than the cost of counting: a center with at least n/8 wedges
// clears the whole array (a memclr of n counts), a lighter one walks its
// wedges again to zero just the counts they touched. Tracking the
// touched vertices inside the count loop instead made it about twice as
// slow on the protein analogue.
//
// Centers are split over at most workers goroutines, and over no more
// than |E| / |center side|, so their count arrays together stay within the
// graph's own size. Every edge has exactly one endpoint on the center side
// and is written only by the goroutine that owns that center, so the
// result does not depend on the worker count.
func butterflyEdges(g *bigraph.Graph, workers int) []bool {
	on := make([]bool, g.NumEdges())
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
	workers = max(1, min(workers, g.NumEdges()/max(n, 1)))
	const chunk = 64 // centers claimed at a time
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			via := make([]uint64, n)
			var cnt []int32 // the exact pass's counts, made on first use
			for lo := int(next.Add(chunk)) - chunk; lo < n; lo = int(next.Add(chunk)) - chunk {
				for c := lo; c < min(lo+chunk, n); c++ {
					x := bigraph.VertexID(c)
					if len(nbr(x)) < 2 || witnessEdges(x, nbr, opp, via, on) {
						continue // no butterfly without two middles, or settled
					}
					if cnt == nil {
						cnt = make([]int32, n)
					}
					wedges := wedgeCount(x, nbr, opp, cnt)
					for _, h := range nbr(x) {
						if on[h.E] {
							continue
						}
						for _, h2 := range opp(h.To) {
							if cnt[h2.To] >= 2 && h2.To != x {
								on[h.E] = true
								break
							}
						}
					}
					if wedges >= n/8 {
						clear(cnt)
						continue
					}
					for _, h := range nbr(x) {
						for _, h2 := range opp(h.To) {
							cnt[h2.To] = 0
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return on
}

// witnessEdges marks the edges of center x that one shared second vertex
// puts on a butterfly, and reports whether that decides every edge of x.
// It walks the middles m of x in order and scans N(m) only until it meets
// a vertex y ≠ x already seen through an earlier middle m′: then
// {x, y} × {m, m′} is a butterfly, so it marks (x, m) and (x, m′). via[y]
// holds x+1 in its high half and the edge (x, m′) in its low half, so no
// reset is needed between centers.
//
// x is decided once every edge whose middle has degree ≥ 2 is marked (a
// middle of degree 1 has no second vertex), or when no scan stopped
// before the end of its row. In that case every y was seen, so each
// butterfly {x, y} × {m, m′} with m before m′ was found: the scan of m
// met y, seen through m or earlier, and so did the scan of m′, marking
// m′ with y's first middle and m through y or an earlier witness. Only
// a row left short can hide the y that puts an unmarked edge on a
// butterfly, so such a center returns false for the exact pass.
func witnessEdges(x bigraph.VertexID, nbr, opp func(bigraph.VertexID) []bigraph.Half, via []uint64, on []bool) bool {
	stamp := uint64(x+1) << 32
	open := 0 // unmarked edges whose middle has degree >= 2
	for _, h := range nbr(x) {
		if len(opp(h.To)) >= 2 {
			open++
		}
	}
	short := false
	for _, h := range nbr(x) {
		row := opp(h.To)
		for k, h2 := range row {
			y := h2.To
			if y == x {
				continue
			}
			if via[y]&^(1<<32-1) != stamp {
				via[y] = stamp | uint64(h.E)
				continue
			}
			for _, e := range [2]bigraph.EdgeID{h.E, bigraph.EdgeID(via[y])} {
				if !on[e] {
					on[e] = true
					open--
				}
			}
			if open == 0 {
				return true
			}
			short = short || k < len(row)-1
			break
		}
	}
	return open == 0 || !short
}

// wedgeCount adds one to cnt[y] per wedge (x, m, y), which on zeroed
// counts leaves cnt[y] = |N(x) ∩ N(y)| for every y ≠ x; cnt[x] gains
// deg(x), since skipping x would cost a branch per wedge. nbr lists the
// adjacency of x's side and opp that of the other side. It returns the
// number of wedges counted.
func wedgeCount(x bigraph.VertexID, nbr, opp func(bigraph.VertexID) []bigraph.Half, cnt []int32) int {
	wedges := 0
	for _, h := range nbr(x) {
		row := opp(h.To)
		wedges += len(row)
		for _, h2 := range row {
			cnt[h2.To]++
		}
	}
	return wedges
}

// snapCache memoizes snapshots per graph, keyed by graph identity
// (graphs are immutable). Capacity is small — the cache exists so
// repeated runs, parallel workers and pooled service jobs over the same
// few graphs stop rebuilding ~1MB of SoA tables plus the butterfly
// membership pass per kernel — and old entries fall off the MRU tail, so
// at most snapCacheCap graphs are kept alive by it.
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
// request. Building (layout and the membership pass) happens outside the
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
