package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// TestEdgeSupportMatchesBruteForce: butterflyEdges must mark, for every
// edge, whether any backbone butterfly listed by butterfly.AllBackbone
// contains it, at every worker count. Every other graph is transposed, so
// the cheaper wedge side — the one the pass centers on — is the left side
// in some graphs and the right side in others.
func TestEdgeSupportMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var leftCenters, rightCenters int
	for i := 0; i < 60; i++ {
		numL, numR := 2+r.Intn(3), 6+r.Intn(5)
		if i%2 == 1 {
			numL, numR = numR, numL
		}
		b := bigraph.NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				if r.Intn(3) > 0 {
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), halfGrid[r.Intn(len(halfGrid))], 0.5)
				}
			}
		}
		g := b.Build()
		var sumL2, sumR2 int
		for u := 0; u < numL; u++ {
			sumL2 += g.DegreeL(bigraph.VertexID(u)) * g.DegreeL(bigraph.VertexID(u))
		}
		for v := 0; v < numR; v++ {
			sumR2 += g.DegreeR(bigraph.VertexID(v)) * g.DegreeR(bigraph.VertexID(v))
		}
		if sumR2 <= sumL2 {
			leftCenters++
		} else {
			rightCenters++
		}

		want := make([]int32, g.NumEdges())
		for _, bw := range butterfly.AllBackbone(g) {
			ids, _ := bw.B.EdgeIDs(g)
			for _, id := range ids {
				want[id]++
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got := butterflyEdges(g, workers)
			for id := range want {
				if got[id] != (want[id] > 0) {
					t.Fatalf("graph %d (%dx%d) edge %d, %d workers: on a butterfly = %v, want support %d > 0",
						i, numL, numR, id, workers, got[id], want[id])
				}
			}
		}
	}
	if leftCenters == 0 || rightCenters == 0 {
		t.Fatalf("centers: %d graphs on the left, %d on the right; want both sides", leftCenters, rightCenters)
	}
}

// TestButterflyEdgesSparseCenters covers the other reset path of
// butterflyEdges: on a graph of 150 small disjoint blocks, every center's
// few wedges touch far fewer than n/8 counts, so each center re-zeroes
// its counts by walking its wedges again instead of clearing the array.
// A count left behind would mark edges of later centers wrongly.
func TestButterflyEdgesSparseCenters(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const blocks, side = 150, 3
	b := bigraph.NewBuilder(blocks*side, blocks*side)
	for k := 0; k < blocks; k++ {
		for u := 0; u < side; u++ {
			for v := 0; v < side; v++ {
				if r.Intn(2) == 0 {
					b.MustAddEdge(bigraph.VertexID(k*side+u), bigraph.VertexID(k*side+v), 1, 0.5)
				}
			}
		}
	}
	g := b.Build()
	want := make([]bool, g.NumEdges())
	for _, bw := range butterfly.AllBackbone(g) {
		ids, _ := bw.B.EdgeIDs(g)
		for _, id := range ids {
			want[id] = true
		}
	}
	for _, workers := range []int{1, 3} {
		if got := butterflyEdges(g, workers); !slices.Equal(got, want) {
			t.Fatalf("%d workers: membership differs from butterfly.AllBackbone", workers)
		}
	}
}

// FuzzButterflyEdges decodes a graph of at most 6×6 from the fuzz bytes —
// weights from a set that stresses the weight order (signed zeros,
// negatives, the smallest subnormal, a huge value), probabilities from
// probGrid — and checks the set-up tables against brute force:
// butterflyEdges on 1 and 3 workers against butterfly.AllBackbone, and
// the snapshot's order, admission and support-sharpened budgets against
// the comparison sort and the listed butterflies.
func FuzzButterflyEdges(f *testing.F) {
	f.Add([]byte{5, 5, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31})
	f.Add([]byte{2, 5, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244})
	f.Add([]byte{0, 0, 1, 1})
	weights := []float64{-2, math.Copysign(0, -1), 0, 0.5, 1, 3, 5e-324, 1e300}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			t.Skip()
		}
		numL, numR := 1+int(raw[0])%6, 1+int(raw[1])%6
		b := bigraph.NewBuilder(numL, numR)
		for slot, by := range raw[2:min(len(raw), 2+numL*numR)] {
			if by&1 == 0 {
				continue
			}
			b.MustAddEdge(bigraph.VertexID(slot%numL), bigraph.VertexID(slot/numL),
				weights[by>>1&7], probGrid[int(by>>4)%len(probGrid)])
		}
		g := b.Build()

		want := make([]bool, g.NumEdges())
		for _, bw := range butterfly.AllBackbone(g) {
			ids, _ := bw.B.EdgeIDs(g)
			for _, id := range ids {
				want[id] = true
			}
		}
		for _, workers := range []int{1, 3} {
			if got := butterflyEdges(g, workers); !slices.Equal(got, want) {
				t.Fatalf("%d workers: membership %v, want %v", workers, got, want)
			}
		}

		order := make([]bigraph.EdgeID, g.NumEdges())
		for i := range order {
			order[i] = bigraph.EdgeID(i)
		}
		sort.Slice(order, func(a, b int) bool {
			wa, wb := g.Edge(order[a]).W, g.Edge(order[b]).W
			if wa != wb {
				return wa > wb
			}
			return order[a] < order[b]
		})
		s := newEdgeSnapshot(g, runtime.GOMAXPROCS(0))
		if !slices.Equal(s.id, order) {
			t.Fatalf("snapshot order %v, comparator order %v", s.id, order)
		}
		var top [3]float64
		found := 0
		for i, id := range order {
			if !want[id] && s.admitTh[i] != 0 {
				t.Fatalf("edge %d lies on no butterfly but admits at threshold %d", id, s.admitTh[i])
			}
			if want[id] && found < 3 {
				top[found] = g.Edge(id).W
				found++
			}
		}
		if s.barren != (found == 0) || s.wBarS != top[0]+top[1]+top[2] || s.wBar2S != top[0]+top[1] {
			t.Fatalf("barren %v, budgets %v/%v; want %v, %v/%v",
				s.barren, s.wBarS, s.wBar2S, found == 0, top[0]+top[1]+top[2], top[0]+top[1])
		}
	})
}

// TestButterflyEdgesExactFallback covers the center the witness pass
// cannot settle. Center x has middles m1 < m2 < m3 with N(m1) = {x, a, b},
// N(m2) = {x, a, c} and N(m3) = {x, c}; a star of degree-1 middles on z
// makes x's side the center side. The scan of m2 stops at a, seen
// through m1, before it records c, so (x, m3) is left unmarked though
// it lies on {x, c} × {m2, m3}: x, alone of all centers, needs the
// exact pass.
func TestButterflyEdgesExactFallback(t *testing.T) {
	const x, a, b, c, z = 0, 1, 2, 3, 4
	const m1, m2, m3 = 0, 1, 2
	g := bigraph.NewBuilder(5, 6)
	for _, e := range [][2]bigraph.VertexID{
		{x, m1}, {a, m1}, {b, m1}, {x, m2}, {a, m2}, {c, m2}, {x, m3}, {c, m3}, {z, 3}, {z, 4}, {z, 5},
	} {
		g.MustAddEdge(e[0], e[1], 1, 0.5)
	}
	gr := g.Build()
	nbr, opp := gr.NeighborsL, gr.NeighborsR

	on := make([]bool, gr.NumEdges())
	via := make([]uint64, gr.NumL())
	var open []bigraph.VertexID
	for u := 0; u < gr.NumL(); u++ {
		if !witnessEdges(bigraph.VertexID(u), nbr, opp, via, on) {
			open = append(open, bigraph.VertexID(u))
		}
	}
	if !slices.Equal(open, []bigraph.VertexID{x}) {
		t.Fatalf("centers left to the exact pass: %v, want [%d]", open, x)
	}
	xm3, _ := gr.FindEdge(x, m3)
	if on[xm3] {
		t.Fatal("the witness pass marked (x, m3); the graph no longer needs the exact pass")
	}

	want := make([]bool, gr.NumEdges())
	for _, bw := range butterfly.AllBackbone(gr) {
		ids, _ := bw.B.EdgeIDs(gr)
		for _, id := range ids {
			want[id] = true
		}
	}
	if !want[xm3] {
		t.Fatal("(x, m3) lies on no butterfly; the fixture is wrong")
	}
	for _, workers := range []int{1, 2} {
		if got := butterflyEdges(gr, workers); !slices.Equal(got, want) {
			t.Fatalf("%d workers: membership %v, want %v", workers, got, want)
		}
	}
}

// TestSnapshotTablesIndependentOfWorkers: a snapshot built on 2, 3 or 8
// workers equals the 1-worker build in every table, on graphs of 70,001
// edges, enough for every worker to get a range of its own, and not a
// multiple of rngBlock. Weights come from a few values, so ties straddle
// the range boundaries, ±0 among them; probabilities mix 0 and 1 with
// values in (0, 1); and the two graphs are transposes of each other, so
// the live lists center on the right side in one and on the left in the
// other. Every goroutine a build starts must have exited once it returns.
func TestSnapshotTablesIndependentOfWorkers(t *testing.T) {
	const numL, numR, n = 140, 1400, 70001
	r := rand.New(rand.NewSource(29))
	weights := []float64{-1, math.Copysign(0, -1), 0, 0.5, 0.75, 2}
	probs := []float64{0, 1, 0.25, 0.5, 0.9}
	var edges []bigraph.Edge
	for _, k := range r.Perm(numL * numR)[:n] {
		edges = append(edges, bigraph.Edge{U: bigraph.VertexID(k % numL), V: bigraph.VertexID(k / numL),
			W: weights[r.Intn(len(weights))], P: probs[r.Intn(len(probs))]})
	}
	flips := map[bool]bool{}
	before := runtime.NumGoroutine()
	for _, transpose := range []bool{false, true} {
		sl, sr := numL, numR
		if transpose {
			sl, sr = numR, numL
			for i := range edges {
				edges[i].U, edges[i].V = edges[i].V, edges[i].U
			}
		}
		g, err := bigraph.FromEdges(sl, sr, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := newEdgeSnapshot(g, 1)
		flips[want.flip] = true
		if want.barren || !slices.Contains(want.admitTh, 0) || !slices.Contains(want.admitTh, 1<<53) {
			t.Fatalf("transpose %v: the graph does not exercise admission (barren %v)", transpose, want.barren)
		}
		bits := func(w []float64) []uint64 {
			b := make([]uint64, len(w))
			for i, x := range w {
				b[i] = math.Float64bits(x)
			}
			return b
		}
		for _, workers := range []int{2, 3, 8} {
			s := newEdgeSnapshot(g, workers)
			for table, same := range map[string]bool{
				"id":      slices.Equal(s.id, want.id),
				"w":       slices.Equal(bits(s.w), bits(want.w)),
				"pc":      slices.Equal(s.pc, want.pc),
				"thresh":  slices.Equal(s.thresh, want.thresh),
				"liveOff": slices.Equal(s.liveOff, want.liveOff),
				"admitTh": slices.Equal(s.admitTh, want.admitTh),
				"wordOf":  slices.Equal(s.wordOf, want.wordOf),
				"ndraws":  slices.Equal(s.ndraws, want.ndraws),
				"flip":    s.flip == want.flip,
				"budgets": slices.Equal(bits([]float64{s.wBar, s.wBarS, s.wBar2S}), bits([]float64{want.wBar, want.wBarS, want.wBar2S})),
				"barren":  s.barren == want.barren,
			} {
				if !same {
					t.Errorf("transpose %v, %d workers: %s differs from the 1-worker build", transpose, workers, table)
				}
			}
		}
	}
	if len(flips) != 2 {
		t.Fatalf("flip took only the values %v; want both sides", flips)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the builds returned, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestSnapshotCacheBounded: concurrent first requests for a graph get one
// snapshot, and the cache keeps at most snapCacheCap graphs' snapshots,
// dropping the least recently used, so a graph asked for between the
// others keeps its snapshot.
func TestSnapshotCacheBounded(t *testing.T) {
	graphs := make([]*bigraph.Graph, 2*snapCacheCap)
	for i := range graphs {
		graphs[i] = figure1Graph()
	}
	const n = 8
	first := make([]*edgeSnapshot, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i] = snapshotFor(graphs[0])
		}()
	}
	wg.Wait()
	for i, s := range first {
		if s != first[0] {
			t.Fatalf("concurrent request %d got a snapshot of its own", i)
		}
	}
	for _, g := range graphs[1:] {
		snapshotFor(g)
		if snapshotFor(graphs[0]) != first[0] {
			t.Fatal("a graph asked for between the others lost its snapshot")
		}
	}
	held := map[*bigraph.Graph]bool{}
	snapshots.DeleteFunc(func(g *bigraph.Graph, _ *edgeSnapshot) bool {
		held[g] = true
		return false
	})
	if len(held) > snapCacheCap {
		t.Fatalf("%d snapshots cached, want at most %d", len(held), snapCacheCap)
	}
	if !held[graphs[0]] || !held[graphs[len(graphs)-1]] {
		t.Fatal("the cache dropped one of the graphs used most recently")
	}
}
