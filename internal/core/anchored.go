package core

import (
	"fmt"
	"math/bits"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// AnchorKind selects which element of the graph an anchored query pins.
type AnchorKind uint8

const (
	// AnchorLeft restricts the search to butterflies containing the left
	// vertex Anchor.U.
	AnchorLeft AnchorKind = iota + 1
	// AnchorRight restricts the search to butterflies containing the right
	// vertex Anchor.V.
	AnchorRight
	// AnchorEdge restricts the search to butterflies containing the
	// backbone edge (Anchor.U, Anchor.V).
	AnchorEdge
)

// Anchor pins an anchored MPMB query to a vertex or a backbone edge: only
// butterflies containing the anchor compete for S_MB in each sampled
// world. The zero Anchor means "no anchor" (a global query).
type Anchor struct {
	Kind AnchorKind
	U    bigraph.VertexID // left vertex (AnchorLeft, AnchorEdge)
	V    bigraph.VertexID // right vertex (AnchorRight, AnchorEdge)
}

// Validate checks the anchor against the graph's vertex ranges and, for
// AnchorEdge, backbone membership.
func (a Anchor) Validate(g *bigraph.Graph) error {
	switch a.Kind {
	case AnchorLeft:
		if int(a.U) >= g.NumL() {
			return fmt.Errorf("core: anchor left vertex %d out of range [0,%d)", a.U, g.NumL())
		}
	case AnchorRight:
		if int(a.V) >= g.NumR() {
			return fmt.Errorf("core: anchor right vertex %d out of range [0,%d)", a.V, g.NumR())
		}
	case AnchorEdge:
		if int(a.U) >= g.NumL() {
			return fmt.Errorf("core: anchor edge left endpoint %d out of range [0,%d)", a.U, g.NumL())
		}
		if int(a.V) >= g.NumR() {
			return fmt.Errorf("core: anchor edge right endpoint %d out of range [0,%d)", a.V, g.NumR())
		}
		if _, ok := g.FindEdge(a.U, a.V); !ok {
			return fmt.Errorf("core: anchor edge (%d,%d) is not a backbone edge", a.U, a.V)
		}
	default:
		return fmt.Errorf("core: anchor kind unset")
	}
	return nil
}

func (a Anchor) String() string {
	switch a.Kind {
	case AnchorLeft:
		return fmt.Sprintf("L%d", a.U)
	case AnchorRight:
		return fmt.Sprintf("R%d", a.V)
	case AnchorEdge:
		return fmt.Sprintf("E(%d,%d)", a.U, a.V)
	}
	return "unanchored"
}

// contains reports whether butterfly b contains the anchor.
func (a Anchor) contains(b butterfly.Butterfly) bool {
	inL := b.U1 == a.U || b.U2 == a.U
	inR := b.V1 == a.V || b.V2 == a.V
	switch a.Kind {
	case AnchorLeft:
		return inL
	case AnchorRight:
		return inR
	case AnchorEdge:
		return inL && inR
	}
	return false
}

// newAnchoredSnapshot gathers the snapshot an anchored job's kernels
// scan from g's global snapshot (snapshotFor, which builds it on a
// graph's first job if none is cached): only the edges of the backbone
// butterflies through a, in the global weight-descending order, paired on
// the anchor's side (an edge anchor pairs on the left, so its right
// endpoint is the pinned center). Every world's anchored S_MB is made of
// these edges alone, so a trial over the snapshot with the anchored
// admission rule (see admitEdge) is Algorithm 2 with S_MB restricted to
// butterflies through the anchor.
//
// The edges are marked in a bitset over global positions and copied in
// ascending position order, so the build reads only the anchor's edges
// from the global arrays and never sorts or recomputes a threshold. The
// snapshot shares the global token table, and its kernels come from the
// global snapshot's pool (edgeSnapshot.kernel).
func newAnchoredSnapshot(g *bigraph.Graph, a Anchor) *edgeSnapshot {
	base := snapshotFor(g)
	in := anchoredPositions(g, a, base.positions())
	n := 0
	for _, word := range in {
		n += bits.OnesCount64(word)
	}
	flip := a.Kind == AnchorRight
	s := &edgeSnapshot{
		w:      make([]float64, n),
		prt:    make([]bigraph.VertexID, n),
		ctr:    make([]bigraph.VertexID, n),
		id:     make([]bigraph.EdgeID, n),
		thresh: make([]uint64, n),
		flip:   flip,
		anchor: a,
		pin:    a.U,
		global: base,
		tok:    base.tok,
	}
	numCtr := g.NumR()
	if flip {
		s.pin, numCtr = a.V, g.NumL()
	}
	s.liveOff = make([]int32, numCtr+1)
	prt, ctr := base.prt, base.ctr
	if flip != base.flip {
		prt, ctr = ctr, prt
	}
	k := 0
	for wi, word := range in {
		for ; word != 0; word &= word - 1 {
			p := wi<<6 | bits.TrailingZeros64(word)
			s.w[k], s.thresh[k], s.id[k] = base.w[p], base.thresh[p], base.id[p]
			s.prt[k], s.ctr[k] = prt[p], ctr[p]
			s.liveOff[ctr[p]+1]++
			k++
		}
	}
	s.settle()
	return s
}

// anchoredPositions marks the edges of the backbone butterflies through a
// in a bitset over the global snapshot's positions, which rank maps edge
// ids to. A butterfly through the anchor's vertex x on the pairing side
// joins x and a partner y over two middles in N(x) ∩ N(y), so the wedge
// count from x — |N(x) ∩ N(y)| for every y, as in vertex-priority
// butterfly counting — names the partners: y is one exactly when its
// count is at least 2 (and, for an edge anchor, when y is adjacent to the
// pinned center too). The butterfly edges are then each partner's edges
// to middles of x, and x's edges to middles that have a partner.
func anchoredPositions(g *bigraph.Graph, a Anchor, rank []int32) []uint64 {
	x, nbr, opp, n := a.U, g.NeighborsL, g.NeighborsR, g.NumL()
	if a.Kind == AnchorRight {
		x, nbr, opp, n = a.V, g.NeighborsR, g.NeighborsL, g.NumR()
	}
	cnt := make([]int32, n)
	wedgeCount(x, nbr, opp, cnt)
	cnt[x] = 0 // x is no partner of its own
	if a.Kind == AnchorEdge {
		adj := make([]int32, n)
		for _, h := range g.NeighborsR(a.V) {
			adj[h.To] = cnt[h.To]
		}
		cnt = adj
	}
	in := make([]uint64, (len(rank)+63)/64)
	for _, h := range nbr(x) {
		partnered := false
		for _, h2 := range opp(h.To) {
			if cnt[h2.To] >= 2 {
				p := rank[h2.E]
				in[p>>6] |= 1 << (p & 63)
				partnered = true
			}
		}
		if partnered {
			p := rank[h.E]
			in[p>>6] |= 1 << (p & 63)
		}
	}
	return in
}

// AnchoredOS runs anchor-restricted Ordering Sampling: OS's trial kernel
// over the anchor's own snapshot, gathered from g's cached global one (see
// newAnchoredSnapshot), so each of opt.Trials worlds credits its maximum
// set among the butterflies through the anchor. Its kernels come from the
// pool that global runs on g use, so a warm graph's anchored job builds
// none; a graph's first job, anchored or not, builds the global snapshot.
// An anchor with zero butterfly support yields an empty Result. Resume is
// not supported for anchored runs; Interrupt yields a partial Result
// without a checkpoint. An edge anchor rejects the KeepAllAngles and
// DropA2 knobs, which its angle entries have no room for; every other
// knob applies as in OS.
//
// AnchoredOS is AnchoredOSParallel with one worker.
func AnchoredOS(g *bigraph.Graph, a Anchor, opt OSOptions) (*Result, error) {
	return AnchoredOSParallel(g, a, opt, 1)
}

// AnchoredOSParallel is AnchoredOS with trials spread over workers
// goroutines (≤ 1 means one). Each worker derives the same per-trial
// streams from the shared seed, so results are identical for every
// worker count.
func AnchoredOSParallel(g *bigraph.Graph, a Anchor, opt OSOptions, workers int) (*Result, error) {
	if opt.Resume != nil {
		return nil, fmt.Errorf("core: anchored runs do not support Resume")
	}
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	return osRun(g, a, opt, workers)
}

// PrepareAnchoredCandidates runs nPrep anchored trials and unions each
// trial's anchored S_MB into a candidate set, the anchor-restricted
// analogue of PrepareCandidates. Interrupt stops early: the returned set
// reports the completed prefix in PrepDone (no checkpoint).
func PrepareAnchoredCandidates(g *bigraph.Graph, a Anchor, nPrep int, seed uint64, interrupt func() bool) (*Candidates, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	return prepare(g, a, nPrep, seed, OSOptions{Interrupt: interrupt})
}
