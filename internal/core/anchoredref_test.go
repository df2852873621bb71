package core

import (
	"math"
	"math/bits"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// This file freezes the anchored trial as it ran before anchored jobs read
// the global snapshot through a view: each job gathered its own snapshot
// of the anchor's butterfly edges, and the generic per-position loop ran
// over it, recording every present edge in its center's live list and
// forming angles only when one of the two edges is the pin's. The
// anchored tests hold the view-based trial to it draw for draw: the same
// S_MB in the same order, the same weight and the same scan position. Do
// not change anything here.

// anchoredRef is a gathered anchored snapshot and the per-trial state of
// the loop that scanned it.
type anchoredRef struct {
	opt    OSOptions
	a      Anchor
	pin    bigraph.VertexID
	flip   bool
	w      []float64
	prt    []bigraph.VertexID
	ctr    []bigraph.VertexID
	id     []bigraph.EdgeID
	thresh []uint64
	wBar   float64

	liveOff  []int32
	liveFlat []liveEdge
	live     []liveMeta
	liveCur  uint32
	tok      []uint64
	tab      angleTable
	pool     []angleEntry
	poolN    int
}

// newAnchoredRef gathers the anchor's butterfly edges from g's global
// snapshot in position order, paired on the anchor's side.
func newAnchoredRef(g *bigraph.Graph, a Anchor, opt OSOptions) *anchoredRef {
	base := snapshotFor(g)
	rank := make([]int32, base.numEdges())
	for p, id := range base.id {
		rank[id] = int32(p)
	}
	in := anchoredPositions(g, a, rank)
	n := 0
	for _, word := range in {
		n += bits.OnesCount64(word)
	}
	flip := a.Kind == AnchorRight
	s := &anchoredRef{
		opt:    opt,
		a:      a,
		pin:    a.U,
		flip:   flip,
		w:      make([]float64, n),
		prt:    make([]bigraph.VertexID, n),
		ctr:    make([]bigraph.VertexID, n),
		id:     make([]bigraph.EdgeID, n),
		thresh: make([]uint64, n),
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
	for c := 1; c < len(s.liveOff); c++ {
		s.liveOff[c] += s.liveOff[c-1]
	}
	for i := min(n, 3) - 1; i >= 0; i-- {
		s.wBar += s.w[i]
	}
	s.liveFlat = make([]liveEdge, n)
	s.live = make([]liveMeta, max(g.NumL(), g.NumR()))
	s.liveCur = 1
	s.tab = newAngleTable(minAngleTableCap)
	s.tab.tok = base.tok
	return s
}

func (s *anchoredRef) resetTrial() {
	s.liveCur++
	if s.liveCur == 0 {
		for i := range s.live {
			s.live[i].gen = 0
		}
		s.liveCur = 1
	}
	s.tab.reset()
	s.poolN = 0
}

// trialRNG is the generic threshold trial over the gathered snapshot.
func (s *anchoredRef) trialRNG(sMB *butterfly.MaxSet, rng *randx.RNG) (scanned int) {
	s.resetTrial()
	sMB.Reset()
	prune := !s.opt.DisableEdgePrune
	wMax := math.Inf(-1)
	i := 0
	for ; i < len(s.id); i++ {
		if prune && s.w[i]+s.wBar < wMax {
			break
		}
		th := s.thresh[i]
		if th == randx.BernoulliNever {
			continue
		}
		if th != randx.BernoulliAlways && rng.Uint64()>>11 >= th {
			continue
		}
		wMax = s.admitEdge(i, wMax)
	}
	s.materialize(sMB, wMax)
	return i
}

// trial is trialRNG with presence from an oracle.
func (s *anchoredRef) trial(sMB *butterfly.MaxSet, present func(bigraph.EdgeID) bool) (scanned int) {
	s.resetTrial()
	sMB.Reset()
	prune := !s.opt.DisableEdgePrune
	wMax := math.Inf(-1)
	i := 0
	for ; i < len(s.id); i++ {
		if prune && s.w[i]+s.wBar < wMax {
			break
		}
		if !present(s.id[i]) {
			continue
		}
		wMax = s.admitEdge(i, wMax)
	}
	s.materialize(sMB, wMax)
	return i
}

// admitEdge processes the present edge at position i with the pin rule:
// an angle forms only when one of its two edges is the pin's edge at that
// center.
func (s *anchoredRef) admitEdge(i int, wMax float64) float64 {
	ui, vj, w := s.prt[i], s.ctr[i], s.w[i]
	base := s.liveOff[vj]
	lm := s.live[vj]
	n := lm.n
	if lm.gen != s.liveCur {
		n = 0
	}
	live, record := s.liveFlat[base:base+n], true
	if ui != s.pin {
		if n > 0 && live[n-1].to == s.pin {
			live, record = live[n-1:], false
		} else {
			live = nil
		}
	}
	for _, hb := range live {
		uk := hb.to
		if uk == ui {
			continue
		}
		angleW := w + hb.w
		ei := s.entryFor(ui, uk)
		ent := &s.pool[ei]
		if s.opt.KeepAllAngles {
			ent.all = append(ent.all, midW{mid: vj, w: angleW})
		}
		switch {
		case s.a.Kind == AnchorEdge:
			ent.updatePinned(angleW, vj, vj == s.a.V)
		case s.opt.DropA2:
			ent.updateDropA2(angleW, vj)
		default:
			ent.update(angleW, vj)
		}
		if bw := ent.bestWeight(); bw > wMax {
			wMax = bw
		}
	}
	if record {
		s.liveFlat[base+n] = liveEdge{to: ui, w: w, tok: s.tok[ui]}
		s.live[vj] = liveMeta{n: n + 1, gen: s.liveCur}
	}
	return wMax
}

func (s *anchoredRef) entryFor(a, b bigraph.VertexID) int32 {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	i, found := s.tab.getOrPut(key, int32(s.poolN))
	if found {
		return i
	}
	if s.poolN == len(s.pool) {
		s.pool = append(s.pool, angleEntry{})
	}
	e := &s.pool[i]
	e.mids1 = e.mids1[:0]
	e.mids2 = e.mids2[:0]
	e.all = e.all[:0]
	e.u1, e.u2 = a, b
	e.w1, e.w2 = math.Inf(-1), math.Inf(-1)
	s.poolN++
	return i
}

func (s *anchoredRef) materialize(sMB *butterfly.MaxSet, wMax float64) {
	if math.IsInf(wMax, -1) {
		return
	}
	emit := func(ent *angleEntry, m1, m2 bigraph.VertexID) {
		sMB.Add(orient(s.flip, ent.u1, ent.u2, m1, m2), wMax)
	}
	for i := 0; i < s.poolN; i++ {
		ent := &s.pool[i]
		if s.opt.KeepAllAngles {
			for a := 0; a < len(ent.all); a++ {
				for b := a + 1; b < len(ent.all); b++ {
					if ent.all[a].mid == ent.all[b].mid {
						continue
					}
					if w := ent.all[a].w + ent.all[b].w; w == wMax {
						emit(ent, ent.all[a].mid, ent.all[b].mid)
					}
				}
			}
			continue
		}
		switch {
		case len(ent.mids1) >= 2 && 2*ent.w1 == wMax:
			for a := 0; a < len(ent.mids1); a++ {
				for b := a + 1; b < len(ent.mids1); b++ {
					emit(ent, ent.mids1[a], ent.mids1[b])
				}
			}
		case len(ent.mids1) == 1 && len(ent.mids2) >= 1 && ent.w1+ent.w2 == wMax:
			for _, m2 := range ent.mids2 {
				emit(ent, ent.mids1[0], m2)
			}
		}
	}
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
