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
			kernels[i] = newOSIndexFromSnapshot(g, OSOptions{}, newAnchoredSnapshot(g, a))
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

// anchoredReference lays out the snapshot newAnchoredSnapshot must gather
// for a, without the global snapshot: the edges of the backbone
// butterflies through a, listed by brute force, in g.EdgesByWeightDesc
// order, with endpoints paired on the anchor's side, live offsets
// prefix-summed from the per-center counts, and w̄ added lightest first.
func anchoredReference(g *bigraph.Graph, a Anchor) *edgeSnapshot {
	in := make([]bool, g.NumEdges())
	for _, bw := range butterfly.AllBackbone(g) {
		if a.contains(bw.B) {
			ids, _ := bw.B.EdgeIDs(g)
			for _, id := range ids {
				in[id] = true
			}
		}
	}
	flip := a.Kind == AnchorRight
	numCtr := g.NumR()
	if flip {
		numCtr = g.NumL()
	}
	s := &edgeSnapshot{flip: flip, liveOff: make([]int32, numCtr+1)}
	for _, id := range g.EdgesByWeightDesc() {
		if !in[id] {
			continue
		}
		e := g.Edge(id)
		prt, ctr := e.U, e.V
		if flip {
			prt, ctr = e.V, e.U
		}
		s.id = append(s.id, id)
		s.w = append(s.w, e.W)
		s.thresh = append(s.thresh, randx.BernoulliThreshold(e.P))
		s.prt = append(s.prt, prt)
		s.ctr = append(s.ctr, ctr)
		s.liveOff[ctr+1]++
	}
	for c := 1; c <= numCtr; c++ {
		s.liveOff[c] += s.liveOff[c-1]
	}
	for i := min(len(s.w), 3) - 1; i >= 0; i-- {
		s.wBar += s.w[i]
	}
	return s
}

// checkAnchoredLayout compares the snapshot gathered for a with
// anchoredReference field by field, w̄ as the same float.
func checkAnchoredLayout(t *testing.T, g *bigraph.Graph, a Anchor, label string) {
	t.Helper()
	got, want := newAnchoredSnapshot(g, a), anchoredReference(g, a)
	switch {
	case !slices.Equal(got.id, want.id):
		t.Fatalf("%s: ids %v, want %v", label, got.id, want.id)
	case !slices.Equal(got.w, want.w):
		t.Fatalf("%s: weights %v, want %v", label, got.w, want.w)
	case !slices.Equal(got.thresh, want.thresh):
		t.Fatalf("%s: thresholds %v, want %v", label, got.thresh, want.thresh)
	case !slices.Equal(got.prt, want.prt) || !slices.Equal(got.ctr, want.ctr) || got.flip != want.flip:
		t.Fatalf("%s: endpoints %v/%v flip %v, want %v/%v flip %v", label, got.prt, got.ctr, got.flip, want.prt, want.ctr, want.flip)
	case !slices.Equal(got.liveOff, want.liveOff):
		t.Fatalf("%s: live offsets %v, want %v", label, got.liveOff, want.liveOff)
	case math.Float64bits(got.wBar) != math.Float64bits(want.wBar):
		t.Fatalf("%s: w̄ %v, want %v", label, got.wBar, want.wBar)
	case got.anchor != a:
		t.Fatalf("%s: anchor %v", label, got.anchor)
	}
}

// TestAnchoredSnapshotLayout: for every anchor of random graphs, the
// snapshot gathered from the global one equals the reference laid out
// from a brute-force butterfly listing. The graphs include global
// snapshots centered on either side, so the gather both keeps and swaps
// the global endpoints, and a zero-support anchor gets an empty snapshot.
func TestAnchoredSnapshotLayout(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	graphs := []*bigraph.Graph{figure1Graph(), pendantGraph()}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, randGraph(r, 6, 6, 30), randGraph(r, 8, 3, 20), randGraph(r, 3, 8, 20))
	}
	var centers [2]bool // global snapshots seen centered on the right, on the left
	for gi, g := range graphs {
		if snapshotFor(g).flip {
			centers[1] = true
		} else {
			centers[0] = true
		}
		for _, a := range allAnchors(g) {
			checkAnchoredLayout(t, g, a, fmt.Sprintf("graph %d anchor %v", gi, a))
		}
	}
	if !centers[0] || !centers[1] {
		t.Fatalf("global snapshots centered right/left: %v, want both", centers)
	}
	g := pendantGraph()
	for _, a := range []Anchor{{Kind: AnchorLeft, U: 0}, {Kind: AnchorRight, V: 0}, {Kind: AnchorEdge, U: 0, V: 0}} {
		if s := newAnchoredSnapshot(g, a); s.numEdges() != 0 || s.wBar != 0 {
			t.Fatalf("zero-support anchor %v: %d edges, w̄ %v", a, s.numEdges(), s.wBar)
		}
	}
}

// FuzzAnchoredSnapshot checks the gathered snapshot against
// anchoredReference on small random graphs with half-step weights, for a
// left, a right and an edge anchor picked by the input, and requires
// AnchoredOSParallel to return the same Result on 1 and 3 workers.
func FuzzAnchoredSnapshot(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23})
	f.Add([]byte{4, 1, 7, 2, 9, 255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244})
	f.Add([]byte{0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 5 {
			t.Skip()
		}
		numL, numR := 1+int(raw[0])%5, 1+int(raw[1])%5
		b := bigraph.NewBuilder(numL, numR)
		for slot, by := range raw[5:min(len(raw), 5+numL*numR)] {
			if by&1 == 0 {
				continue
			}
			b.MustAddEdge(bigraph.VertexID(slot%numL), bigraph.VertexID(slot/numL),
				halfGrid[by>>1&7], probGrid[int(by>>4)%len(probGrid)])
		}
		g := b.Build()
		anchors := []Anchor{
			{Kind: AnchorLeft, U: bigraph.VertexID(int(raw[2]) % numL)},
			{Kind: AnchorRight, V: bigraph.VertexID(int(raw[3]) % numR)},
		}
		if g.NumEdges() > 0 {
			e := g.Edge(bigraph.EdgeID(int(raw[4]) % g.NumEdges()))
			anchors = append(anchors, Anchor{Kind: AnchorEdge, U: e.U, V: e.V})
		}
		for _, a := range anchors {
			checkAnchoredLayout(t, g, a, fmt.Sprintf("anchor %v", a))
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
// trial's pass over the anchored snapshot — on one worker and on two.
func TestAnchoredProbeMetersScan(t *testing.T) {
	g := benchGraph()
	a := Anchor{Kind: AnchorLeft, U: g.Edge(g.EdgesByWeightDesc()[0]).U}
	n := int64(newAnchoredSnapshot(g, a).numEdges())
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
