package bigraph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func buildFigure1(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2, 2)
	cases := []struct {
		u, v VertexID
		w, p float64
	}{
		{2, 0, 1, 0.5},           // left out of range
		{0, 2, 1, 0.5},           // right out of range
		{0, 0, math.NaN(), 0.5},  // NaN weight
		{0, 0, math.Inf(1), 0.5}, // infinite weight
		{0, 0, 1, -0.1},          // negative probability
		{0, 0, 1, 1.1},           // probability > 1
		{0, 0, 1, math.NaN()},    // NaN probability
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.w, c.p); err == nil {
			t.Errorf("AddEdge(%d,%d,%v,%v) accepted invalid input", c.u, c.v, c.w, c.p)
		}
	}
	if err := b.AddEdge(0, 0, 1, 0.5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(0, 0, 2, 0.7); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestCSRAdjacencyConsistency(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := 1+r.Intn(8), 1+r.Intn(8)
		b := NewBuilder(numL, numR)
		for i := 0; i < 20; i++ {
			u, v := VertexID(r.Intn(numL)), VertexID(r.Intn(numR))
			_ = b.AddEdge(u, v, r.Float64()*5, r.Float64()) // dups rejected silently
		}
		g := b.Build()
		// Every edge appears exactly once in each side's adjacency;
		// degrees sum to |E| on both sides.
		sumL, sumR := 0, 0
		for u := 0; u < numL; u++ {
			row := g.NeighborsL(VertexID(u))
			sumL += len(row)
			for i, h := range row {
				e := g.Edge(h.E)
				if e.U != VertexID(u) || e.V != h.To {
					return false
				}
				if i > 0 && row[i-1].To >= h.To {
					return false // rows must be strictly sorted
				}
			}
		}
		for v := 0; v < numR; v++ {
			row := g.NeighborsR(VertexID(v))
			sumR += len(row)
			for i, h := range row {
				e := g.Edge(h.E)
				if e.V != VertexID(v) || e.U != h.To {
					return false
				}
				if i > 0 && row[i-1].To >= h.To {
					return false
				}
			}
		}
		return sumL == g.NumEdges() && sumR == g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFindEdge(t *testing.T) {
	g := buildFigure1(t)
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(EdgeID(id))
		got, ok := g.FindEdge(e.U, e.V)
		if !ok || got != EdgeID(id) {
			t.Fatalf("FindEdge(%d,%d) = %d,%v; want %d,true", e.U, e.V, got, ok, id)
		}
	}
	if _, ok := g.FindEdge(0, 5); ok {
		t.Fatal("FindEdge found a right vertex out of range")
	}
	if _, ok := g.FindEdge(7, 0); ok {
		t.Fatal("FindEdge found a left vertex out of range")
	}
	// Missing pair within range.
	b := NewBuilder(2, 2)
	b.MustAddEdge(0, 0, 1, 1)
	g2 := b.Build()
	if _, ok := g2.FindEdge(1, 1); ok {
		t.Fatal("FindEdge found a nonexistent edge")
	}
}

func TestDegreesAndExpectedDegrees(t *testing.T) {
	g := buildFigure1(t)
	if g.DegreeL(0) != 3 || g.DegreeL(1) != 3 {
		t.Fatalf("left degrees = %d,%d, want 3,3", g.DegreeL(0), g.DegreeL(1))
	}
	for v := 0; v < 3; v++ {
		if g.DegreeR(VertexID(v)) != 2 {
			t.Fatalf("right degree of %d = %d, want 2", v, g.DegreeR(VertexID(v)))
		}
	}
	// d̄(u1) = 0.5+0.6+0.8 = 1.9.
	if got := g.ExpectedDegreeL(0); math.Abs(got-1.9) > 1e-12 {
		t.Fatalf("expected degree of u1 = %v, want 1.9", got)
	}
	// d̄(v1) = 0.5+0.3 = 0.8.
	if got := g.ExpectedDegreeR(0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("expected degree of v1 = %v, want 0.8", got)
	}
	// E[deg²(v1)] = Var + mean² = (0.25+0.21) + 0.64 = 1.1.
	if got := g.ExpectedSquaredDegreeR(0); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("expected squared degree of v1 = %v, want 1.1", got)
	}
	// Same quantity on the left: Var = .25+.24+.16=0.65, mean²=3.61.
	if got := g.ExpectedSquaredDegreeL(0); math.Abs(got-4.26) > 1e-12 {
		t.Fatalf("expected squared degree of u1 = %v, want 4.26", got)
	}
}

func TestEdgesByWeightDescAndTopWeightSum(t *testing.T) {
	g := buildFigure1(t)
	order := g.EdgesByWeightDesc()
	if len(order) != 6 {
		t.Fatalf("order has %d edges, want 6", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.Edge(order[i]).W > g.Edge(order[i-1]).W {
			t.Fatalf("weights not descending at %d", i)
		}
	}
	// Top-3 weights are 3, 3, 2.
	if got := g.TopWeightSum(3); got != 8 {
		t.Fatalf("TopWeightSum(3) = %v, want 8", got)
	}
	if got := g.TopWeightSum(100); math.Abs(got-12) > 1e-12 {
		t.Fatalf("TopWeightSum(100) = %v, want total 12", got)
	}
	if got := g.TopWeightSum(0); got != 0 {
		t.Fatalf("TopWeightSum(0) = %v, want 0", got)
	}
}

func TestTopWeightSumProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		b := NewBuilder(n, n)
		ws := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			w := math.Floor(r.Float64()*20) / 2
			ws = append(ws, w)
			b.MustAddEdge(VertexID(i), VertexID(i), w, 0.5)
		}
		g := b.Build()
		k := 1 + r.Intn(5)
		// Reference: sort and take k largest.
		sorted := append([]float64(nil), ws...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		want := 0.0
		for i := 0; i < k && i < len(sorted); i++ {
			want += sorted[i]
		}
		return math.Abs(g.TopWeightSum(k)-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityOrderIsDegreeMonotone(t *testing.T) {
	g := buildFigure1(t)
	order := g.PriorityOrder()
	if len(order) != 5 {
		t.Fatalf("order covers %d vertices, want 5", len(order))
	}
	// Ranks must be a permutation of 0..4.
	seen := make([]bool, 5)
	for _, rk := range order {
		if rk < 0 || rk >= 5 || seen[rk] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[rk] = true
	}
	// Degree-3 left vertices must outrank degree-2 right vertices.
	for u := 0; u < 2; u++ {
		for v := 0; v < 3; v++ {
			if order[g.GlobalID(SideL, VertexID(u))] <= order[g.GlobalID(SideR, VertexID(v))] {
				t.Fatalf("degree-3 u%d does not outrank degree-2 v%d", u+1, v+1)
			}
		}
	}
}

func TestGlobalIDRoundTrip(t *testing.T) {
	g := buildFigure1(t)
	for gid := 0; gid < g.NumVertices(); gid++ {
		side, v := g.SplitGlobalID(gid)
		if got := g.GlobalID(side, v); got != gid {
			t.Fatalf("GlobalID round trip failed for %d: got %d", gid, got)
		}
	}
}

func TestMaxWeightAndExpectedEdges(t *testing.T) {
	g := buildFigure1(t)
	if g.MaxWeight() != 3 {
		t.Fatalf("MaxWeight = %v, want 3", g.MaxWeight())
	}
	empty := NewBuilder(1, 1).Build()
	if empty.MaxWeight() != 0 {
		t.Fatalf("empty MaxWeight = %v, want 0", empty.MaxWeight())
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(2, 2, []Edge{{U: 0, V: 0, W: 1, P: 0.5}, {U: 1, V: 1, W: 2, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, err := FromEdges(1, 1, []Edge{{U: 5, V: 0, W: 1, P: 0.5}}); err == nil {
		t.Fatal("FromEdges accepted an out-of-range edge")
	}
}

// weightOrderOracle is the comparison sort EdgesByWeightDesc replaced:
// weight descending, ties (−0 and +0 among them) by ascending id.
func weightOrderOracle(g *Graph) []EdgeID {
	ids := make([]EdgeID, g.NumEdges())
	for i := range ids {
		ids[i] = EdgeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		wa, wb := g.Edge(ids[a]).W, g.Edge(ids[b]).W
		if wa != wb {
			return wa > wb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// checkRowsSorted fails unless every CSR row is strictly sorted by
// opposite endpoint and FindEdge locates every edge through them.
func checkRowsSorted(t testing.TB, g *Graph) {
	t.Helper()
	for u := 0; u < g.NumL(); u++ {
		row := g.NeighborsL(VertexID(u))
		for i := 1; i < len(row); i++ {
			if row[i].To <= row[i-1].To {
				t.Fatalf("left row %d not strictly sorted: %v", u, row)
			}
		}
	}
	for v := 0; v < g.NumR(); v++ {
		row := g.NeighborsR(VertexID(v))
		for i := 1; i < len(row); i++ {
			if row[i].To <= row[i-1].To {
				t.Fatalf("right row %d not strictly sorted: %v", v, row)
			}
		}
	}
	for id, e := range g.Edges() {
		if got, ok := g.FindEdge(e.U, e.V); !ok || got != EdgeID(id) {
			t.Fatalf("FindEdge(%d, %d) = %d, %v; want %d", e.U, e.V, got, ok, id)
		}
	}
}

// TestEdgesByWeightDescMatchesComparator: the radix order equals the
// comparison sort on weights that stress the key mapping (signed zeros,
// negatives, the smallest subnormal, huge magnitudes, heavy ties), and
// every CSR row comes out strictly sorted.
func TestEdgesByWeightDescMatchesComparator(t *testing.T) {
	weights := []float64{-2, math.Copysign(0, -1), 0, 0.5, 1, 3, 5e-324, -5e-324, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		numL, numR := 1+r.Intn(40), 1+r.Intn(40)
		b := NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				if r.Intn(3) == 0 {
					w := weights[r.Intn(len(weights))]
					if i%2 == 1 {
						w = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
					}
					b.MustAddEdge(VertexID(u), VertexID(v), w, 0.5)
				}
			}
		}
		g := b.Build()
		if got, want := g.EdgesByWeightDesc(), weightOrderOracle(g); !slices.Equal(got, want) {
			t.Fatalf("graph %d: radix order %v, comparator order %v", i, got, want)
		}
		checkRowsSorted(t, g)
	}
}

// TestParsedGraphsKeepNoSpareCapacity: Read, ReadBinary and FromEdges hand
// their edge slice to the Graph without a copy, so an honest edge count
// must leave that slice exactly full.
func TestParsedGraphsKeepNoSpareCapacity(t *testing.T) {
	g := benchGraph(600, 600, 150000) // past the first doubling step
	var text, bin bytes.Buffer
	if err := Write(&text, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	fromText, err := Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	fromEdges, err := FromEdges(600, 600, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Graph{"Read": fromText, "ReadBinary": fromBin, "FromEdges": fromEdges} {
		if len(h.Edges()) != 150000 || cap(h.Edges()) != 150000 {
			t.Errorf("%s: edge slice len %d cap %d, want 150000 and 150000", name, len(h.Edges()), cap(h.Edges()))
		}
	}
	// A header that overstates the input grows the slice by doubling from
	// 1<<16 edges, never past the declared count.
	b := NewBuilder(1, 1)
	var caps []int
	for range 4 {
		b.reserve(200000)
		caps = append(caps, cap(b.edges))
		b.edges = b.edges[:cap(b.edges)]
	}
	if want := []int{1 << 16, 1 << 17, 200000, 200000}; !slices.Equal(caps, want) {
		t.Fatalf("reserve capacities %v, want %v", caps, want)
	}
}

// TestEdgesByWeightDescWorkers: the radix order on 1, 2, 3 and 8 workers
// equals the comparison sort on graphs of 70,001 edges, enough for every
// worker to get a segment of its own: weights from a few values (ties
// straddle every segment boundary, ±0 among them), continuous weights,
// and small integers, whose keys share their low bytes, so those passes
// are skipped.
func TestEdgesByWeightDescWorkers(t *testing.T) {
	const n = 70001 // 8 segments of at least parallel.Grain, not a multiple of 64
	r := rand.New(rand.NewSource(29))
	few := []float64{-1, math.Copysign(0, -1), 0, 0.5, 2}
	for name, weight := range map[string]func() float64{
		"ties":       func() float64 { return few[r.Intn(len(few))] },
		"continuous": func() float64 { return r.NormFloat64() },
		"integers":   func() float64 { return float64(r.Intn(50)) },
	} {
		b := NewBuilder(n, 1)
		for u := range n {
			b.MustAddEdge(VertexID(u), 0, weight(), 0.5)
		}
		g := b.Build()
		skipped := 0
		for d := 0; d < 8; d++ {
			first := byte(weightKey(g.edges[0].W) >> (8 * d))
			shared := true
			for _, e := range g.edges {
				shared = shared && byte(weightKey(e.W)>>(8*d)) == first
			}
			if shared {
				skipped++
			}
		}
		if name == "integers" && skipped == 0 {
			t.Fatal("integers: no radix pass is skipped")
		}
		want := weightOrderOracle(g)
		for _, workers := range []int{1, 2, 3, 8} {
			if got := g.edgesByWeightDesc(workers); !slices.Equal(got, want) {
				t.Fatalf("%s, %d workers: radix order differs from the comparison sort", name, workers)
			}
		}
	}
}
