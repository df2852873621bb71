package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// allAnchors lists every valid anchor of g.
func allAnchors(g *bigraph.Graph) []Anchor {
	var as []Anchor
	for u := 0; u < g.NumL(); u++ {
		as = append(as, Anchor{Kind: AnchorLeft, U: bigraph.VertexID(u)})
	}
	for v := 0; v < g.NumR(); v++ {
		as = append(as, Anchor{Kind: AnchorRight, V: bigraph.VertexID(v)})
	}
	for _, e := range g.Edges() {
		as = append(as, Anchor{Kind: AnchorEdge, U: e.U, V: e.V})
	}
	return as
}

// denseGraph draws a graph of 2 to 4 vertices a side that holds each
// possible edge with probability 3/4, up to maxEdges of them, with
// weights from weights and probabilities from probGrid.
func denseGraph(r *rand.Rand, maxEdges int, weights []float64) *bigraph.Graph {
	numL, numR := 2+r.Intn(3), 2+r.Intn(3)
	b := bigraph.NewBuilder(numL, numR)
	for u := 0; u < numL; u++ {
		for v := 0; v < numR && b.NumEdges() < maxEdges; v++ {
			if r.Intn(4) > 0 {
				w := weights[r.Intn(len(weights))]
				p := probGrid[r.Intn(len(probGrid))]
				b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, p)
			}
		}
	}
	return b.Build()
}

// TestAnchoredTrialMatchesBruteForce certifies the anchored trial itself:
// on every world of every graph, a kernel over the anchor's snapshot
// (osIndex.runTrial with World.Has) must return exactly the brute-force
// maximum set of the world's butterflies containing the anchor, for every
// left, right and edge anchor. Half the random graphs draw their weights
// from {0.5, 1, 1.5}, so weight ties are the rule there.
func TestAnchoredTrialMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	graphs := []*bigraph.Graph{figure1Graph(), pendantGraph()}
	for i := 0; i < 100; i++ {
		weights := halfGrid
		if i%2 == 1 {
			weights = halfGrid[:3]
		}
		graphs = append(graphs, denseGraph(r, 12, weights))
	}
	for gi, g := range graphs {
		anchors := allAnchors(g)
		kernels := make([]*osIndex, len(anchors))
		for i, a := range anchors {
			kernels[i] = anchoredKernel(g, a, OSOptions{})
		}
		var world []butterfly.WithWeight
		var got butterfly.MaxSet
		err := possible.Enumerate(g, func(w *possible.World, _ float64) bool {
			world = world[:0]
			butterfly.ForEachInWorld(g, w, func(b butterfly.Butterfly, wt float64) bool {
				world = append(world, butterfly.WithWeight{B: b, W: wt})
				return true
			})
			for i, a := range anchors {
				var want butterfly.MaxSet
				for _, bw := range world {
					if a.contains(bw.B) {
						want.Add(bw.B, bw.W)
					}
				}
				kernels[i].runTrial(&got, w.Has)
				sameMaxSet(t, got, want, fmt.Sprintf("graph %d anchor %v", gi, a))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// anchoredKernel returns a fresh kernel over g's global snapshot,
// restricted to a's view of it.
func anchoredKernel(g *bigraph.Graph, a Anchor, opt OSOptions) *osIndex {
	x := newOSIndexFromSnapshot(g, opt, snapshotFor(g))
	x.restrict(newAnchoredView(g, a))
	return x
}

// checkAnchoredView compares a's view of g's global snapshot with what a
// brute-force listing of the backbone butterflies through a gives, at the
// positions g.EdgesByWeightDesc lists the edges in: the member blocks with
// their members, the members whose p ∈ (0,1), the members before their
// center's pin edge and the first member's weight; the pin's edge
// position at each center with members, and the members before it there
// in ascending position with their partners and weights; the member
// count, and w̄ (the first three members' weights added lightest first)
// as the same float.
func checkAnchoredView(t *testing.T, g *bigraph.Graph, a Anchor, label string) {
	t.Helper()
	v := newAnchoredView(g, a)
	order := g.EdgesByWeightDesc()
	pos := make([]int32, len(order))
	for p, id := range order {
		pos[id] = int32(p)
	}
	member := make([]bool, len(order))
	for _, bw := range butterfly.AllBackbone(g) {
		if a.contains(bw.B) {
			ids, _ := bw.B.EdgeIDs(g)
			for _, id := range ids {
				member[pos[id]] = true
			}
		}
	}
	flip := a.Kind == AnchorRight
	pin, numCtr := a.U, g.NumR()
	if flip {
		pin, numCtr = a.V, g.NumL()
	}
	ends := func(p int) (prt, ctr bigraph.VertexID) {
		e := g.Edge(order[p])
		if flip {
			return e.V, e.U
		}
		return e.U, e.V
	}
	pinAt := make([]int32, numCtr) // the pin's member edge at each center, or -1
	for c := range pinAt {
		pinAt[c] = -1
	}
	for p := range order {
		if prt, ctr := ends(p); member[p] && prt == pin {
			pinAt[ctr] = int32(p)
		}
	}
	rows := make([][]earlyEdge, numCtr)
	var blocks []memberBlock
	var weights []float64
	for p, id := range order {
		if !member[p] {
			continue
		}
		e := g.Edge(id)
		prt, ctr := ends(p)
		if len(blocks) == 0 || int(blocks[len(blocks)-1].wi) != p/64 {
			blocks = append(blocks, memberBlock{first: e.W, wi: int32(p / 64)})
		}
		b := &blocks[len(blocks)-1]
		b.in |= 1 << (p % 64)
		if e.P > 0 && e.P < 1 {
			b.drawn |= 1 << (p % 64)
		}
		if prt != pin && int32(p) < pinAt[ctr] {
			b.early |= 1 << (p % 64)
			rows[ctr] = append(rows[ctr], earlyEdge{pos: int32(p), to: prt, w: e.W})
		}
		weights = append(weights, e.W)
	}
	var wBar float64
	for i := min(len(weights), 3) - 1; i >= 0; i-- {
		wBar += weights[i]
	}
	switch {
	case v.a != a || v.pin != pin || v.flip != flip:
		t.Fatalf("%s: anchor %v pin %d flip %v, want %v, %d, %v", label, v.a, v.pin, v.flip, a, pin, flip)
	case !slices.Equal(v.blocks, blocks):
		t.Fatalf("%s: blocks %+v, want %+v", label, v.blocks, blocks)
	case v.n != len(weights):
		t.Fatalf("%s: %d members, want %d", label, v.n, len(weights))
	case math.Float64bits(v.wBar) != math.Float64bits(wBar):
		t.Fatalf("%s: w̄ %v, want %v", label, v.wBar, wBar)
	}
	for c, want := range rows {
		ctr := v.ctrs[c]
		if got := v.rows[ctr.lo:ctr.hi]; !slices.Equal(got, want) {
			t.Fatalf("%s: center %d members before the pin edge %v, want %v", label, c, got, want)
		}
	}
	for c, p := range pinAt {
		if p >= 0 && v.ctrs[c].pin != p {
			t.Fatalf("%s: center %d pin edge at %d, want %d", label, c, v.ctrs[c].pin, p)
		}
	}
}

// TestAnchoredSnapshotLayout: for every anchor of random graphs, the
// anchor's view of the global snapshot equals what a brute-force
// butterfly listing gives. The graphs include global snapshots centered
// on either side, so views both keep and swap the global endpoints, and a
// zero-support anchor gets an empty view.
func TestAnchoredSnapshotLayout(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	graphs := []*bigraph.Graph{figure1Graph(), pendantGraph()}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randGraph(r, 6, 6, 30), randGraph(r, 8, 3, 20), randGraph(r, 3, 8, 20))
	}
	graphs = append(graphs, sparseGraph(r, 40, 30, 200), sparseGraph(r, 25, 50, 200))
	var centers [2]bool // global snapshots seen centered on the right, on the left
	for gi, g := range graphs {
		if snapshotFor(g).flip {
			centers[1] = true
		} else {
			centers[0] = true
		}
		for _, a := range allAnchors(g) {
			checkAnchoredView(t, g, a, fmt.Sprintf("graph %d anchor %v", gi, a))
		}
	}
	if !centers[0] || !centers[1] {
		t.Fatalf("global snapshots centered right/left: %v, want both", centers)
	}
	g := pendantGraph()
	for _, a := range []Anchor{{Kind: AnchorLeft, U: 0}, {Kind: AnchorRight, V: 0}, {Kind: AnchorEdge, U: 0, V: 0}} {
		if v := newAnchoredView(g, a); v.n != 0 || len(v.blocks) != 0 || v.wBar != 0 {
			t.Fatalf("zero-support anchor %v: %d members in %d blocks, w̄ %v", a, v.n, len(v.blocks), v.wBar)
		}
	}
}

// fuzzGraph builds a graph of up to 12 vertices a side from raw: raw[0]
// and raw[1] size the sides, and each byte from raw[5] on decides one
// vertex pair in turn, an edge when its low bit is set, with a weight from
// halfGrid and a probability from probGrid.
func fuzzGraph(raw []byte) *bigraph.Graph {
	numL, numR := 1+int(raw[0])%12, 1+int(raw[1])%12
	b := bigraph.NewBuilder(numL, numR)
	for slot, by := range raw[5:min(len(raw), 5+numL*numR)] {
		if by&1 == 0 {
			continue
		}
		b.MustAddEdge(bigraph.VertexID(slot%numL), bigraph.VertexID(slot/numL),
			halfGrid[by>>1&7], probGrid[int(by>>4)%len(probGrid)])
	}
	return b.Build()
}

// fuzzAnchors picks a left, a right and, when g has edges, an edge anchor
// by raw[2..4].
func fuzzAnchors(g *bigraph.Graph, raw []byte) []Anchor {
	anchors := []Anchor{
		{Kind: AnchorLeft, U: bigraph.VertexID(int(raw[2]) % g.NumL())},
		{Kind: AnchorRight, V: bigraph.VertexID(int(raw[3]) % g.NumR())},
	}
	if g.NumEdges() > 0 {
		e := g.Edge(bigraph.EdgeID(int(raw[4]) % g.NumEdges()))
		anchors = append(anchors, Anchor{Kind: AnchorEdge, U: e.U, V: e.V})
	}
	return anchors
}

// FuzzAnchoredSnapshot checks the anchor's view against a brute-force
// listing (checkAnchoredView) on small random graphs with half-step
// weights, for a left, a right and an edge anchor picked by the input,
// and requires AnchoredOSParallel to return the same Result on 1 and 3
// workers.
func FuzzAnchoredSnapshot(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23})
	f.Add([]byte{4, 1, 7, 2, 9, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244})
	f.Add([]byte{0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 5 {
			t.Skip()
		}
		g := fuzzGraph(raw)
		for _, a := range fuzzAnchors(g, raw) {
			checkAnchoredView(t, g, a, fmt.Sprintf("anchor %v", a))
			opt := OSOptions{Trials: 64, Seed: uint64(raw[4])}
			one, err := AnchoredOSParallel(g, a, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			three, err := AnchoredOSParallel(g, a, opt, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("anchor %v, 1 vs 3 workers", a), one, three)
		}
	})
}

// anchoredKnobs lists the kernel knobs an anchored trial runs under: none
// and DisableEdgePrune for every anchor, and KeepAllAngles and DropA2 for
// a vertex anchor, which an edge anchor rejects.
func anchoredKnobs(a Anchor) []OSOptions {
	knobs := []OSOptions{{}, {DisableEdgePrune: true}}
	if a.Kind != AnchorEdge {
		knobs = append(knobs, OSOptions{KeepAllAngles: true}, OSOptions{DropA2: true})
	}
	return knobs
}

// matchAnchoredReference runs trials 1..trials of a's view-restricted
// kernel and of the frozen gathered trial (anchoredRef) on the same
// streams, for every knob of anchoredKnobs, and requires each trial to
// give the same S_MB in the same order, the same weight and the same scan
// position. With worlds set, each trial also runs both on the world its
// stream draws edge by edge, presence from an oracle. It returns the
// number of trials compared.
func matchAnchoredReference(t *testing.T, g *bigraph.Graph, a Anchor, seed uint64, trials int, worlds bool) int {
	t.Helper()
	compared := 0
	var got, want butterfly.MaxSet
	var rng randx.RNG
	present := make([]bool, g.NumEdges())
	has := func(id bigraph.EdgeID) bool { return present[id] }
	same := func(label string, gotScan, wantScan int) {
		t.Helper()
		if gotScan != wantScan || math.Float64bits(got.W) != math.Float64bits(want.W) || !slices.Equal(got.Set, want.Set) {
			t.Fatalf("%s: scan %d, W %v, S_MB %v; reference scan %d, W %v, S_MB %v",
				label, gotScan, got.W, got.Set, wantScan, want.W, want.Set)
		}
	}
	for _, opt := range anchoredKnobs(a) {
		x, ref := anchoredKernel(g, a, opt), newAnchoredRef(g, a, opt)
		root := randx.New(seed)
		for trial := uint64(1); trial <= uint64(trials); trial++ {
			label := fmt.Sprintf("anchor %v knobs %+v trial %d", a, opt, trial)
			gotScan := x.runTrialSeeded(root, trial, &got)
			root.DeriveInto(trial, &rng)
			same(label, gotScan, ref.trialRNG(&want, &rng))
			compared++
			if !worlds {
				continue
			}
			root.DeriveInto(trial, &rng)
			for id := range present {
				present[id] = rng.Bernoulli(g.Edge(bigraph.EdgeID(id)).P)
			}
			gotScan = x.runTrial(&got, has)
			same(label+" (world)", gotScan, ref.trial(&want, has))
		}
	}
	return compared
}

// FuzzAnchoredVsReference holds the anchored trial to the frozen gathered
// one (anchoredRef) on graphs of up to 12 vertices a side: for a left, a
// right and an edge anchor picked by the input, under every knob, 64
// trials must match draw for draw (matchAnchoredReference).
func FuzzAnchoredVsReference(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23})
	f.Add([]byte{4, 1, 7, 2, 9, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244})
	dense := []byte{11, 11, 5, 6, 7}
	for i := range 144 {
		dense = append(dense, byte(i*37+1)|1)
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 5 {
			t.Skip()
		}
		g := fuzzGraph(raw)
		for _, a := range fuzzAnchors(g, raw) {
			matchAnchoredReference(t, g, a, uint64(raw[4])<<8|uint64(raw[2]), 64, false)
		}
	})
}

// sparseGraph draws a graph of numL × numR vertices with about numE
// random edges (repeats skipped) on the exact-tie-friendly grids, so an
// anchor's members spread over several blocks of 64 positions with gaps
// between them.
func sparseGraph(r *rand.Rand, numL, numR, numE int) *bigraph.Graph {
	b := bigraph.NewBuilder(numL, numR)
	seen := make(map[[2]int]bool)
	for range numE {
		u, v := r.Intn(numL), r.Intn(numR)
		if !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), halfGrid[r.Intn(len(halfGrid))], probGrid[r.Intn(len(probGrid))])
		}
	}
	return b.Build()
}

// TestAnchoredMatchesReference runs matchAnchoredReference, with worlds,
// for every anchor of sparse graphs of 20 to 50 vertices a side, whose
// members spread over several blocks, so the scan's walk back to the
// stopping member crosses blocks; and for every anchor of small dense
// graphs, whose weight ties are the rule.
func TestAnchoredMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	var graphs []*bigraph.Graph
	for i := 0; i < 6; i++ {
		numL, numR := 20+r.Intn(31), 20+r.Intn(31)
		graphs = append(graphs, sparseGraph(r, numL, numR, 3*(numL+numR)))
		graphs = append(graphs, denseGraph(r, 12, halfGrid[:3]))
	}
	trials := 64
	if testing.Short() {
		trials = 16
	}
	compared := 0
	for gi, g := range graphs {
		for _, a := range allAnchors(g) {
			compared += matchAnchoredReference(t, g, a, uint64(gi)*1000+7, trials, true)
		}
	}
	t.Logf("%d trials matched", compared)
}

// TestAnchoredJobsConcurrent runs anchored jobs of every kind, and a
// global job, from several goroutines at once on a graph with no cached
// snapshot, so they race to build the global snapshot and its rank and
// share its kernel pool. Each Result must equal the same job run alone.
func TestAnchoredJobsConcurrent(t *testing.T) {
	g := benchGraph()
	e := g.Edge(g.EdgesByWeightDesc()[0])
	anchors := []Anchor{{}, {Kind: AnchorLeft, U: e.U}, {Kind: AnchorRight, V: e.V},
		{Kind: AnchorEdge, U: e.U, V: e.V}, {Kind: AnchorLeft, U: 1}, {Kind: AnchorRight, V: 1}}
	opt := OSOptions{Trials: 200, Seed: 13}
	run := func(a Anchor) (*Result, error) {
		if a.Kind == 0 {
			return OSParallel(g, opt, 2)
		}
		return AnchoredOSParallel(g, a, opt, 2)
	}
	got := make([]*Result, len(anchors))
	errs := make([]error, len(anchors))
	var wg sync.WaitGroup
	for i, a := range anchors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(a)
		}()
	}
	wg.Wait()
	for i, a := range anchors {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := run(a)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("anchor %v", a), want, got[i])
	}
}

// TestAnchoredAblationsAgree: the knobs an anchored run honours are pure
// ablations there too — DisableEdgePrune for every anchor, KeepAllAngles
// for vertex anchors — so each returns the default Result bit for bit.
// An edge anchor rejects KeepAllAngles and DropA2.
func TestAnchoredAblationsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 6; trial++ {
		g := denseGraph(r, 16, halfGrid)
		if trial%2 == 1 {
			g = randGraph(r, 10, 10, 80)
		}
		for _, a := range allAnchors(g) {
			opt := OSOptions{Trials: 300, Seed: uint64(trial)*17 + 3}
			base, err := AnchoredOS(g, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			ablations := []OSOptions{{DisableEdgePrune: true}}
			if a.Kind != AnchorEdge {
				ablations = append(ablations, OSOptions{KeepAllAngles: true}, OSOptions{KeepAllAngles: true, DisableEdgePrune: true})
			}
			for _, k := range ablations {
				k.Trials, k.Seed = opt.Trials, opt.Seed
				got, err := AnchoredOS(g, a, k)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("anchored %v prune-off=%v all-angles=%v", a, k.DisableEdgePrune, k.KeepAllAngles), base, got)
			}
		}
	}
	e := Anchor{Kind: AnchorEdge, U: 0, V: 0}
	for _, k := range []OSOptions{{Trials: 10, KeepAllAngles: true}, {Trials: 10, DropA2: true}} {
		if _, err := AnchoredOS(figure1Graph(), e, k); err == nil {
			t.Fatalf("edge anchor with %+v: expected an error", k)
		}
	}
}

// TestAnchoredProbeMetersScan: an anchored run meters its ordered scan
// like a global one — edges scanned > 0, and scanned + pruned is every
// trial's pass over the anchor's members — on one worker and on two.
func TestAnchoredProbeMetersScan(t *testing.T) {
	g := benchGraph()
	a := Anchor{Kind: AnchorLeft, U: g.Edge(g.EdgesByWeightDesc()[0]).U}
	n := int64(newAnchoredView(g, a).n)
	const trials = 200
	for _, workers := range []int{1, 2} {
		reg := telemetry.NewRegistry()
		opt := OSOptions{Trials: trials, Seed: 5, Probe: &telemetry.Probe{Reg: reg, Method: "os"}}
		if _, err := AnchoredOSParallel(g, a, opt, workers); err != nil {
			t.Fatal(err)
		}
		m := reg.Snapshot()
		if m.Trials != trials || m.EdgesScanned <= 0 || m.EdgesScanned+m.EdgesPruned != trials*n {
			t.Fatalf("%d workers: trials %d, scanned %d + pruned %d, want %d trials, scanned > 0 and a sum of %d",
				workers, m.Trials, m.EdgesScanned, m.EdgesPruned, trials, trials*n)
		}
	}
}

// TestAnchoredOSMatchesExact checks the sampled anchored estimator
// against the exact anchored oracle within the Hoeffding band.
func TestAnchoredOSMatchesExact(t *testing.T) {
	const trials = 4000
	r := rand.New(rand.NewSource(72))
	graphs := []*bigraph.Graph{figure1Graph()}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, randGraph(r, 4, 4, 12))
	}
	eps := statTol(trials)
	for gi, g := range graphs {
		for ai, a := range allAnchors(g) {
			exact, err := ExactAnchored(g, a, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := AnchoredOS(g, a, OSOptions{Trials: trials, Seed: uint64(1000*gi + ai)})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, res, exact, eps)
		}
	}
}

// checkAgainstExact compares every estimated probability (and every
// exact butterfly missing from the estimate, at 0) within eps.
func checkAgainstExact(t *testing.T, res, exact *Result, eps float64) {
	t.Helper()
	seen := make(map[butterfly.Butterfly]bool)
	for _, e := range res.Estimates {
		want, ok := exact.Lookup(e.B)
		if !ok {
			t.Fatalf("estimated %v absent from exact oracle (P=%v)", e.B, e.P)
		}
		if math.Abs(e.P-want.P) > eps {
			t.Fatalf("P(%v) = %v, exact %v, tol %v", e.B, e.P, want.P, eps)
		}
		seen[e.B] = true
	}
	for _, e := range exact.Estimates {
		if !seen[e.B] && e.P > eps {
			t.Fatalf("exact butterfly %v (P=%v) never sampled, tol %v", e.B, e.P, eps)
		}
	}
}

// TestAnchoredOSParallelMatchesSequential: the parallel runner derives
// the same per-trial streams, so estimates must be identical.
func TestAnchoredOSParallelMatchesSequential(t *testing.T) {
	g := figure1Graph()
	for _, a := range allAnchors(g) {
		opt := OSOptions{Trials: 500, Seed: 9}
		seq, err := AnchoredOS(g, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		par, err := AnchoredOSParallel(g, a, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Estimates) != len(par.Estimates) {
			t.Fatalf("anchor %v: %d vs %d estimates", a, len(seq.Estimates), len(par.Estimates))
		}
		for i := range seq.Estimates {
			if seq.Estimates[i] != par.Estimates[i] {
				t.Fatalf("anchor %v estimate %d: %+v vs %+v", a, i, seq.Estimates[i], par.Estimates[i])
			}
		}
	}
}

// TestAnchoredOLSMatchesCandidateOracle prices the anchored candidate
// set exactly (Lemma VI.5 restricted to C_MB) and checks the anchored
// OLS sampling phase against it.
func TestAnchoredOLSMatchesCandidateOracle(t *testing.T) {
	const trials, prep = 4000, 100
	g := figure1Graph()
	eps := statTol(trials)
	for ai, a := range allAnchors(g) {
		for _, kl := range []bool{false, true} {
			seed := uint64(100 + ai)
			cands, err := PrepareAnchoredCandidates(g, a, prep, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := ExactCandidateProbs(cands)
			if err != nil {
				t.Fatal(err)
			}
			opt := OLSOptions{Trials: trials, PrepTrials: prep, Seed: seed, UseKarpLuby: kl}
			if kl {
				opt.KL.Mu = 0.05
			}
			res, err := anchoredOLS(g, a, opt, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Estimates) != cands.Len() {
				t.Fatalf("anchor %v kl=%v: %d estimates, %d candidates", a, kl, len(res.Estimates), cands.Len())
			}
			for _, e := range res.Estimates {
				if !a.contains(e.B) {
					t.Fatalf("anchor %v: candidate %v does not contain anchor", a, e.B)
				}
			}
			for i, c := range cands.List {
				got, ok := res.Lookup(c.B)
				if !ok {
					t.Fatalf("anchor %v kl=%v: candidate %v missing from result", a, kl, c.B)
				}
				tol := eps
				if kl {
					tol = statTolScaled(c.ExistProb*float64(cands.Len()), trials)
					if tol < eps {
						tol = eps
					}
				}
				if math.Abs(got.P-oracle[i]) > tol {
					t.Fatalf("anchor %v kl=%v: P(%v) = %v, oracle %v, tol %v", a, kl, c.B, got.P, oracle[i], tol)
				}
			}
		}
	}
}

// pendantGraph has L0 as a zero-butterfly-support pendant (one edge to
// R0) next to a proper butterfly on {L1,L2}×{R1,R2}.
func pendantGraph() *bigraph.Graph {
	b := bigraph.NewBuilder(3, 3)
	b.MustAddEdge(0, 0, 5, 0.9) // pendant: L0 touches only R0
	b.MustAddEdge(1, 1, 2, 0.5)
	b.MustAddEdge(1, 2, 1, 0.6)
	b.MustAddEdge(2, 1, 3, 0.7)
	b.MustAddEdge(2, 2, 2, 0.8)
	return b.Build()
}

// TestAnchoredZeroSupport: a vertex (or edge) contained in no butterfly
// must yield an empty Result from every anchored runner.
func TestAnchoredZeroSupport(t *testing.T) {
	g := pendantGraph()
	anchors := []Anchor{
		{Kind: AnchorLeft, U: 0},
		{Kind: AnchorRight, V: 0},
		{Kind: AnchorEdge, U: 0, V: 0},
	}
	for _, a := range anchors {
		exact, err := ExactAnchored(g, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.Estimates) != 0 {
			t.Fatalf("anchor %v: exact oracle found %d butterflies", a, len(exact.Estimates))
		}
		res, err := AnchoredOS(g, a, OSOptions{Trials: 200, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Estimates) != 0 {
			t.Fatalf("anchor %v: anchored OS returned %d estimates, want 0", a, len(res.Estimates))
		}
		ols, err := anchoredOLS(g, a, OLSOptions{Trials: 200, PrepTrials: 50, Seed: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ols.Estimates) != 0 {
			t.Fatalf("anchor %v: anchored OLS returned %d estimates, want 0", a, len(ols.Estimates))
		}
	}
}

func TestAnchorValidate(t *testing.T) {
	g := figure1Graph()
	bad := []Anchor{
		{},
		{Kind: AnchorLeft, U: 2},
		{Kind: AnchorRight, V: 3},
		{Kind: AnchorEdge, U: 5, V: 0},
		{Kind: AnchorEdge, U: 0, V: 9},
	}
	for _, a := range bad {
		if err := a.Validate(g); err == nil {
			t.Fatalf("anchor %+v: expected validation error", a)
		}
	}
	// A missing backbone edge between in-range endpoints.
	pg := pendantGraph()
	if err := (Anchor{Kind: AnchorEdge, U: 0, V: 1}).Validate(pg); err == nil {
		t.Fatal("non-backbone anchor edge: expected validation error")
	}
	if err := (Anchor{Kind: AnchorLeft, U: 1}).Validate(g); err != nil {
		t.Fatalf("valid anchor rejected: %v", err)
	}
}

// TestAnchoredInterrupt: cancellation yields a partial Result without a
// checkpoint, and anchored runs reject the unsupported resume/executor
// options outright.
func TestAnchoredInterrupt(t *testing.T) {
	g := figure1Graph()
	a := Anchor{Kind: AnchorLeft, U: 0}
	calls := 0
	stopAfter := func(n int) func() bool {
		return func() bool { calls++; return calls > n }
	}
	calls = 0
	res, err := AnchoredOS(g, a, OSOptions{Trials: 1000, Seed: 1, Interrupt: stopAfter(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Checkpoint != nil {
		t.Fatalf("interrupted anchored OS: partial=%v checkpoint=%v", res.Partial, res.Checkpoint)
	}
	if res.TrialsDone >= 1000 || res.TrialsDone != 10 {
		t.Fatalf("interrupted anchored OS: TrialsDone=%d", res.TrialsDone)
	}
	calls = 0
	ols, err := anchoredOLS(g, a, OLSOptions{Trials: 1000, PrepTrials: 100, Seed: 1, Interrupt: stopAfter(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ols.Partial || ols.Checkpoint != nil {
		t.Fatalf("interrupted anchored OLS: partial=%v checkpoint=%v", ols.Partial, ols.Checkpoint)
	}
	if _, err := AnchoredOS(g, a, OSOptions{Trials: 10, Resume: &Checkpoint{}}); err == nil {
		t.Fatal("anchored OS with Resume: expected error")
	}
	if _, err := anchoredOLS(g, a, OLSOptions{Trials: 10, PrepTrials: 5, Resume: &Checkpoint{}}, 0); err == nil {
		t.Fatal("anchored OLS with Resume: expected error")
	}
}
