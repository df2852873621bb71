package core

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// tallyRef is the reference the accumulator's table is checked against: a
// plain map of counts, plus the weight each butterfly was first credited
// with.
type tallyRef struct {
	n map[butterfly.Butterfly]int
	w map[butterfly.Butterfly]float64
}

func newTallyRef() *tallyRef {
	return &tallyRef{n: make(map[butterfly.Butterfly]int), w: make(map[butterfly.Butterfly]float64)}
}

// credit mirrors probAccumulator.credit, including its report of whether
// b was new.
func (r *tallyRef) credit(b butterfly.Butterfly, n int, w float64) bool {
	_, seen := r.n[b]
	if !seen {
		r.w[b] = w
	}
	r.n[b] += n
	return !seen
}

// checkTally fails unless a holds exactly r's butterflies, counts and
// weights, and its running leader carries the largest count.
func checkTally(t testing.TB, a *probAccumulator, r *tallyRef) {
	t.Helper()
	found, most := 0, 0
	for k := range a.slots {
		s := &a.slots[k]
		if s.nocc == 0 {
			continue
		}
		found++
		n, ok := r.n[s.b]
		if !ok || s.count() != n || s.w != r.w[s.b] {
			t.Fatalf("%v: table has count %d weight %v, reference %d %v (present %v)",
				s.b, s.count(), s.w, n, r.w[s.b], ok)
		}
		most = max(most, n)
	}
	if found != len(r.n) || a.live != len(r.n) {
		t.Fatalf("table holds %d butterflies (live %d), reference %d", found, a.live, len(r.n))
	}
	if a.leadCount != most || (found > 0 && r.n[a.leadB] != most) {
		t.Fatalf("leader %v at %d, reference maximum %d (leader's count %d)", a.leadB, a.leadCount, most, r.n[a.leadB])
	}
}

// tieGraph is a tie-heavy fixture in the manner of a quantized rating
// graph: K_{12,12} with every weight 1 but one heavier edge, so a trial's
// S_MB holds every present butterfly (about a thousand of 4,356) unless
// the heavy edge is present and lies on a butterfly.
func tieGraph() *bigraph.Graph {
	const n = 12
	b := bigraph.NewBuilder(n, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			w, p := 1.0, probGrid[1+(u*5+v*3)%(len(probGrid)-1)]
			if u == 0 && v == 0 {
				w, p = 1.5, 0.3
			}
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, p)
		}
	}
	return b.Build()
}

// TestTallyMatchesMapOnOSTrials credits real Ordering Sampling trial
// streams from a tie-heavy graph into the table and into a map, comparing
// every count and weight after every trial. The kernel-vs-oracle
// equivalence tests cannot catch a tally bug: the frozen reference credits
// through the same accumulator.
func TestTallyMatchesMapOnOSTrials(t *testing.T) {
	g := tieGraph()
	idx := snapshotFor(g).kernel(g, OSOptions{})
	defer releaseKernel(idx)
	root := randx.New(11)
	viaCredit, viaMaxSet, ref := newProbAccumulator(), newProbAccumulator(), newTallyRef()
	var sMB butterfly.MaxSet
	large := 0
	for u := 1; u <= 150; u++ {
		idx.runTrialSeeded(root, uint64(u), &sMB)
		if len(sMB.Set) >= 500 {
			large++
		}
		for _, b := range sMB.Set {
			if got, want := viaCredit.credit(b, 1, sMB.W), ref.credit(b, 1, sMB.W); got != want {
				t.Fatalf("trial %d: credit(%v) reported new=%v, reference %v", u, b, got, want)
			}
		}
		viaMaxSet.addMaxSet(&sMB)
		checkTally(t, viaCredit, ref)
		checkTally(t, viaMaxSet, ref)
	}
	if large == 0 || len(ref.n) < 4000 {
		t.Fatalf("fixture is not tie-heavy: %d trials with |S_MB| >= 500, %d distinct butterflies", large, len(ref.n))
	}
}

// randButterfly draws a canonical butterfly over nv vertices a side.
func randButterfly(r *rand.Rand, nv int) butterfly.Butterfly {
	u := r.Perm(nv)
	v := r.Perm(nv)
	return butterfly.New(bigraph.VertexID(u[0]), bigraph.VertexID(u[1]), bigraph.VertexID(v[0]), bigraph.VertexID(v[1]))
}

// randCredit draws a credit count: zero (an audit-missed butterfly or a
// zero checkpoint entry), one (a trial), or several (a merged tally).
func randCredit(r *rand.Rand) int {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 2 + r.Intn(5)
	default:
		return r.Intn(1 << 20)
	}
}

// TestTallyRandomStreams credits random streams with zero, unit and large
// counts across several growth doublings, checking the table at every
// doubling and at the end.
func TestTallyRandomStreams(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, ref := newProbAccumulator(), newTallyRef()
	doublings := 0
	for i := 0; i < 30000; i++ {
		b := randButterfly(r, 40)
		n := randCredit(r)
		w := halfGrid[r.Intn(len(halfGrid))]
		capBefore := len(a.slots)
		if got, want := a.credit(b, n, w), ref.credit(b, n, w); got != want {
			t.Fatalf("credit %d (%v, %d): new=%v, reference %v", i, b, n, got, want)
		}
		if len(a.slots) != capBefore {
			doublings++
			checkTally(t, a, ref)
		}
	}
	checkTally(t, a, ref)
	if doublings < 8 {
		t.Fatalf("only %d table allocations; the stream should cross several doublings", doublings)
	}
}

// TestTallyExports covers the accumulator's other users: merge of worker
// tallies, checkpoint snapshot order and its round trip, the candidate hit
// map, and resultNorm's estimates, zero-count butterflies included.
func TestTallyExports(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	parts := []*probAccumulator{newProbAccumulator(), newProbAccumulator(), newProbAccumulator()}
	ref := newTallyRef()
	for i := 0; i < 5000; i++ {
		b := randButterfly(r, 25)
		w := float64(b.U1+b.U2+b.V1+b.V2) / 2 // one weight per butterfly, as the kernels credit
		n := randCredit(r) % 7
		parts[r.Intn(len(parts))].credit(b, n, w)
		ref.credit(b, n, w)
	}
	merged := newProbAccumulator()
	for _, p := range parts {
		merged.merge(p)
	}
	checkTally(t, merged, ref)

	snap := merged.snapshot()
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return lessButterfly(snap[i].B, snap[j].B) }) {
		t.Fatal("snapshot is not in canonical butterfly order")
	}
	zeros := 0
	for _, e := range snap {
		if e.Count == 0 {
			zeros++
		}
		if int(e.Count) != ref.n[e.B] || e.Weight != ref.w[e.B] {
			t.Fatalf("snapshot entry %+v, reference %d %v", e, ref.n[e.B], ref.w[e.B])
		}
	}
	if len(snap) != len(ref.n) || zeros == 0 {
		t.Fatalf("snapshot has %d entries (%d at zero), reference %d", len(snap), zeros, len(ref.n))
	}
	checkTally(t, accumulatorFromCounts(snap), ref)

	hits := merged.hits()
	if len(hits) != len(ref.n) {
		t.Fatalf("hits has %d butterflies, reference %d", len(hits), len(ref.n))
	}
	for b, n := range ref.n {
		if got, ok := hits[b]; !ok || got != n {
			t.Fatalf("hits[%v] = %d (present %v), want %d", b, got, ok, n)
		}
	}

	const norm = 1000
	res := merged.resultNorm("os", 2000, norm)
	if res.Trials != 2000 || res.TrialsDone != norm || len(res.Estimates) != len(ref.n) {
		t.Fatalf("resultNorm: trials %d done %d, %d estimates for %d butterflies",
			res.Trials, res.TrialsDone, len(res.Estimates), len(ref.n))
	}
	for i, e := range res.Estimates {
		if e.P != float64(ref.n[e.B])/norm || e.Weight != ref.w[e.B] {
			t.Fatalf("estimate %+v, reference count %d weight %v", e, ref.n[e.B], ref.w[e.B])
		}
		if i > 0 {
			p := res.Estimates[i-1]
			if p.P < e.P || (p.P == e.P && (p.Weight < e.Weight || (p.Weight == e.Weight && !lessButterfly(p.B, e.B)))) {
				t.Fatalf("estimates %d and %d out of canonical order: %+v, %+v", i-1, i, p, e)
			}
		}
	}
}

// TestTallyAllocsLogarithmic pins the flat layout: crediting N distinct
// butterflies into a fresh accumulator allocates once per table doubling,
// not once per butterfly.
func TestTallyAllocsLogarithmic(t *testing.T) {
	const n = 1 << 14
	r := rand.New(rand.NewSource(9))
	seen := make(map[butterfly.Butterfly]bool, n)
	bs := make([]butterfly.Butterfly, 0, n)
	for len(bs) < n {
		if b := randButterfly(r, 200); !seen[b] {
			seen[b] = true
			bs = append(bs, b)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		a := newProbAccumulator()
		for _, b := range bs {
			a.credit(b, 1, 1)
		}
	})
	if limit := 2 + bits.Len(n); allocs > float64(limit) {
		t.Fatalf("crediting %d distinct butterflies allocated %.0f times, want at most %d", n, allocs, limit)
	}
}

// FuzzTally replays random credit and merge sequences against the map
// reference. Each op is four bytes: a selector, a butterfly index into a
// small universe (so butterflies repeat), a count and a weight.
func FuzzTally(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 0, 1, 0, 3, 4, 1, 1, 2})
	f.Add([]byte{0, 7, 0, 1, 1, 7, 5, 1, 2, 0, 0, 0, 3, 9, 2, 2})
	seq := make([]byte, 0, 4*300)
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i%5), byte(i*37), byte(i%3), byte(i%11))
	}
	f.Add(seq)
	const nv = 24
	universe := make([]butterfly.Butterfly, 0, 256)
	for i := 0; len(universe) < 256; i++ {
		u1, u2, v1, v2 := i%nv, (i/nv)%nv, (i*7)%nv, (i*11+3)%nv
		if u1 != u2 && v1 != v2 {
			universe = append(universe, butterfly.New(bigraph.VertexID(u1), bigraph.VertexID(u2), bigraph.VertexID(v1), bigraph.VertexID(v2)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := newProbAccumulator(), newProbAccumulator()
		refA, refB := newTallyRef(), newTallyRef()
		for len(data) >= 4 {
			op, bf, n, w := data[0], universe[data[1]], int(data[2]%4), float64(data[3]%8)
			if data[2] >= 252 {
				n = 1 << 30
			}
			data = data[4:]
			switch op % 5 {
			case 0, 1:
				if got, want := a.credit(bf, n, w), refA.credit(bf, n, w); got != want {
					t.Fatalf("credit(%v, %d): new=%v, reference %v", bf, n, got, want)
				}
			case 2:
				b.credit(bf, n, w)
				refB.credit(bf, n, w)
			case 3: // fold a worker tally in and start a fresh one
				a.merge(b)
				for x, c := range refB.n {
					refA.credit(x, c, refB.w[x])
				}
				b, refB = newProbAccumulator(), newTallyRef()
			case 4: // fold a remote payload in
				a.mergeCounts(b.snapshot())
				for x, c := range refB.n {
					refA.credit(x, c, refB.w[x])
				}
			}
		}
		checkTally(t, a, refA)
		checkTally(t, b, refB)
	})
}
