package core

import (
	"cmp"
	"fmt"
	"slices"

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

// newAnchoredSnapshot lays out the snapshot an anchored job's kernels
// scan, built once per job with the global snapshot's layout code: only
// the edges of the backbone butterflies through a, in the global
// weight-descending order, paired on the anchor's side (an edge anchor
// pairs on the left, so its right endpoint is the pinned center). Every
// world's anchored S_MB is made of these edges alone, so a trial over the
// snapshot with the anchored admission rule (see admitEdge) is Algorithm
// 2 with S_MB restricted to butterflies through the anchor.
func newAnchoredSnapshot(g *bigraph.Graph, a Anchor) *edgeSnapshot {
	s := layoutSnapshot(g, anchoredEdges(g, a), a.Kind == AnchorRight)
	s.anchor, s.pin = a, a.U
	if a.Kind == AnchorRight {
		s.pin = a.V
	}
	return s
}

// anchoredEdges lists the edges of the backbone butterflies through a in
// the global weight-descending order. A butterfly through the anchor's
// vertex x on the pairing side joins x and a partner y over two middles
// in N(x) ∩ N(y), so the wedge count from x — |N(x) ∩ N(y)| for every y,
// as in vertex-priority butterfly counting — names the partners: y is
// one exactly when its count is at least 2 (and, for an edge anchor,
// when y is adjacent to the pinned center too). The butterfly edges are
// then each partner's edges to middles of x, and x's edges to middles
// that have a partner.
func anchoredEdges(g *bigraph.Graph, a Anchor) []bigraph.EdgeID {
	x, nbr, opp, n := a.U, g.NeighborsL, g.NeighborsR, g.NumL()
	if a.Kind == AnchorRight {
		x, nbr, opp, n = a.V, g.NeighborsR, g.NeighborsL, g.NumR()
	}
	cnt := make([]int32, n)
	wedgeCount(x, nbr, opp, cnt)
	if a.Kind == AnchorEdge {
		adj := make([]int32, n)
		for _, h := range g.NeighborsR(a.V) {
			adj[h.To] = cnt[h.To]
		}
		cnt = adj
	}
	var ids []bigraph.EdgeID
	for _, h := range nbr(x) {
		k := len(ids)
		for _, h2 := range opp(h.To) {
			if cnt[h2.To] >= 2 {
				ids = append(ids, h2.E)
			}
		}
		if len(ids) > k {
			ids = append(ids, h.E)
		}
	}
	return byWeightDesc(g, ids)
}

// byWeightDesc puts ids in the order of g.EdgesByWeightDesc (weight
// descending, then id). When g's snapshot is cached the order is read
// off it in one pass over |E| edges; otherwise ids are sorted. A sort
// comparison reads two edges at random and costs several pass steps,
// so on a cached graph the pass is the cheaper way for all but anchors
// of a few thousand edges, where the sort would save about a
// millisecond per million edges of the graph.
func byWeightDesc(g *bigraph.Graph, ids []bigraph.EdgeID) []bigraph.EdgeID {
	if s := cachedSnapshot(g); s != nil {
		in := make([]uint64, (s.numEdges()+63)/64)
		for _, id := range ids {
			in[id>>6] |= 1 << (id & 63)
		}
		ids = ids[:0]
		for _, id := range s.id {
			if in[id>>6]>>(id&63)&1 != 0 {
				ids = append(ids, id)
			}
		}
		return ids
	}
	slices.SortFunc(ids, func(a, b bigraph.EdgeID) int {
		if c := cmp.Compare(g.Edge(b).W, g.Edge(a).W); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// AnchoredOS runs anchor-restricted Ordering Sampling: OS's trial kernel
// over the anchor's own snapshot (see newAnchoredSnapshot), so each of
// opt.Trials worlds credits its maximum set among the butterflies through
// the anchor. An anchor with zero butterfly support yields an empty
// Result. Resume is not supported for anchored runs; Interrupt yields a
// partial Result without a checkpoint. An edge anchor rejects the
// KeepAllAngles and DropA2 knobs, which its angle entries have no room
// for; every other knob applies as in OS.
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
