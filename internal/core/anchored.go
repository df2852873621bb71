package core

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
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

// anchoredView is an anchored job's view of its graph's global snapshot
// (snapshotFor): which positions hold the edges of the backbone
// butterflies through the anchor, the job's members, and what its trials
// need to join them. Each such butterfly pairs the anchor's vertex on the
// pairing side, the pin, with a partner over two centers, so every angle
// it needs holds the pin's edge at that center (an edge anchor pairs on
// the left, so its right endpoint is the pinned center). A trial reads
// the global arrays through the view and keeps no live lists (see
// osIndex.runAnchored); the view is read-only and shared by the job's
// workers.
type anchoredView struct {
	a    Anchor
	pin  bigraph.VertexID
	flip bool // pairs on the right: a right anchor
	swap bool // the global snapshot pairs on the other side

	// blocks lists the words of a bitset over global positions that hold
	// members, in ascending order.
	blocks []memberBlock

	// ctrs[c] holds, for a center c with members, the position of the
	// pin's edge at c and the bounds of c's row in rows: the members at c
	// before that edge, in ascending position, which it joins when it
	// comes.
	ctrs []pinCenter
	rows []earlyEdge

	n    int     // member count
	wBar float64 // the three heaviest members' weights, added lightest first
}

// memberBlock is one word of a view's members: the rngBlock global
// positions from wi<<rngBlockShift on.
type memberBlock struct {
	in    uint64  // the members
	drawn uint64  // the members whose p ∈ (0,1), which draw a word
	early uint64  // the members before their center's pin edge
	first float64 // the weight of the first member
	wi    int32
}

// pinCenter is a center's entry in a view: its pin edge's position, and
// its early members, rows[lo:hi].
type pinCenter struct {
	pin, lo, hi int32
}

// earlyEdge is a member that precedes its center's pin edge, with the
// partner and weight the pin edge's angle with it needs.
type earlyEdge struct {
	pos int32
	to  bigraph.VertexID
	w   float64
}

// newAnchoredView builds a's view of g's global snapshot, which
// snapshotFor builds on a graph's first job if none is cached.
//
// A butterfly through the pin x joins x and a partner y over two centers
// in N(x) ∩ N(y), so the wedge count from x — |N(x) ∩ N(y)| for every y,
// as in vertex-priority butterfly counting — names the partners: y is one
// exactly when its count is at least 2 (and, for an edge anchor, when y
// is adjacent to the pinned center too). The members are then each
// partner's edges to centers of x, and x's edges to centers that have a
// partner. One walk over x's centers marks them in a bitset over global
// positions through the id → position rank, notes each pin edge's
// position, and marks and counts the members before it at its center; the
// rows are then filled from those members' bits in ascending position
// order, so they come out sorted (a counting sort by center; sorting each
// row instead made jester's vertex-anchor views 2–4 times slower to
// build). w̄ is added lightest first, as the global snapshot's is, so the
// prune budget is the float a scan over the members alone uses.
func newAnchoredView(g *bigraph.Graph, a Anchor) *anchoredView {
	s := snapshotFor(g)
	rank := s.positions()
	v := &anchoredView{a: a, pin: a.U, flip: a.Kind == AnchorRight}
	nbr, opp, n, numCtr := g.NeighborsL, g.NeighborsR, g.NumL(), g.NumR()
	if v.flip {
		v.pin, nbr, opp, n, numCtr = a.V, g.NeighborsR, g.NeighborsL, g.NumR(), g.NumL()
	}
	v.swap = v.flip != s.flip
	cnt := make([]int32, n)
	wedgeCount(v.pin, nbr, opp, cnt)
	cnt[v.pin] = 0 // the pin is no partner of its own
	if a.Kind == AnchorEdge {
		adj := make([]int32, n)
		for _, h := range g.NeighborsR(a.V) {
			adj[h.To] = cnt[h.To]
		}
		cnt = adj
	}
	in := make([]uint64, len(s.ndraws))
	early := make([]uint64, len(s.ndraws))
	v.ctrs = make([]pinCenter, numCtr)
	nEarly := int32(0)
	for _, h := range nbr(v.pin) {
		pp := rank[h.E]
		members, before := 0, int32(0)
		for _, h2 := range opp(h.To) {
			if cnt[h2.To] < 2 {
				continue
			}
			p := rank[h2.E]
			in[p>>rngBlockShift] |= 1 << (p & (rngBlock - 1))
			members++
			if p < pp {
				early[p>>rngBlockShift] |= 1 << (p & (rngBlock - 1))
				before++
			}
		}
		if members > 0 {
			in[pp>>rngBlockShift] |= 1 << (pp & (rngBlock - 1))
			v.n += members + 1
			// hi starts at the row's start and counts up as the row fills.
			v.ctrs[h.To] = pinCenter{pin: pp, lo: nEarly, hi: nEarly}
			nEarly += before
		}
	}
	nonzero := 0
	for _, word := range in {
		if word != 0 {
			nonzero++
		}
	}
	v.blocks = make([]memberBlock, 0, nonzero)
	var top [3]float64
	found := 0
	for wi, word := range in {
		if word == 0 {
			continue
		}
		v.blocks = append(v.blocks, memberBlock{in: word, drawn: word & s.random[wi], early: early[wi],
			first: s.w[wi<<rngBlockShift|bits.TrailingZeros64(word)], wi: int32(wi)})
		for ; word != 0 && found < len(top); word &= word - 1 {
			top[found] = s.w[wi<<rngBlockShift|bits.TrailingZeros64(word)]
			found++
		}
	}
	for i := found - 1; i >= 0; i-- {
		v.wBar += top[i]
	}
	v.rows = make([]earlyEdge, nEarly)
	for wi, word := range early {
		for ; word != 0; word &= word - 1 {
			p := wi<<rngBlockShift | bits.TrailingZeros64(word)
			uvp := s.pc[p]
			to, c := bigraph.VertexID(uvp>>32), bigraph.VertexID(uvp)
			if v.swap {
				to, c = c, to
			}
			v.rows[v.ctrs[c].hi] = earlyEdge{pos: int32(p), to: to, w: s.w[p]}
			v.ctrs[c].hi++
		}
	}
	return v
}

// stopAt returns the ordinal of the first member after position last
// whose prune bound fails against wMax, given that it fails at member p,
// the ord-th member, in the bi-th block. Weights fall with position, so
// the members whose bound fails form a suffix: the walk goes back from p
// while the member before it is after last and fails too.
func (v *anchoredView) stopAt(ws []float64, wMax float64, last, p, ord, bi int) int {
	for {
		b := &v.blocks[bi]
		below := b.in & (1<<(p&(rngBlock-1)) - 1)
		if below == 0 {
			if bi == 0 {
				return ord
			}
			bi--
			b = &v.blocks[bi]
			below = b.in
		}
		q := int(b.wi)<<rngBlockShift | (63 - bits.LeadingZeros64(below))
		if q <= last || !(ws[q]+v.wBar < wMax) {
			return ord
		}
		p, ord = q, ord-1
	}
}

// runAnchored is the trial of an anchored kernel: lines 4–20 of
// Algorithm 2 over the view's members of the global snapshot, with
// presence from rng's raw words or, when rng is nil, from the oracle
// present. It returns the member ordinal the scan stopped at, as
// runTrialRNG returns a position, and is draw for draw the trial of a
// snapshot that holds the members alone.
//
// Members are taken a block (view.blocks) at a time. A block
// draws one raw word per member whose p ∈ (0,1), so the k-th such member
// of the trial compares against the k-th word, and a member's presence is
// the global admitTh test, exact for members since each lies on a
// backbone butterfly. The block's presence bits are kept for the joins
// (osIndex.present).
//
// A present member joins without live lists or an angle hash table: a pin
// edge joins the present earlier members at its center (view.rows), and a
// member after its center's pin edge joins that edge when it is present.
// That forms the angles, in the same order, that a scan recording every
// present member at its center forms when it admits only angles holding
// the pin's edge. A member before its center's pin edge (memberBlock.early)
// joins nothing when it comes, so the scan skips it.
//
// The prune bound (w + w̄ < w_max, with the members' w̄) is tested at each
// block's first member and at each present member that joins. w_max moves
// only at those, and weights fall with position, so a scan testing every
// member stops at the first member after the last joined one whose bound
// fails: a failed test, and the end of the scan, walk back to it
// (stopAt).
func (x *osIndex) runAnchored(sMB *butterfly.MaxSet, rng *randx.RNG, present func(bigraph.EdgeID) bool) (scanned int) {
	x.resetTrial()
	sMB.Reset()
	wMax, scanned := x.scanAnchored(rng, present)
	x.materialize(sMB, wMax)
	return scanned
}

// scanAnchored is runAnchored's scan: it returns the trial's w_max and
// the member ordinal the scan stopped at.
func (x *osIndex) scanAnchored(rng *randx.RNG, present func(bigraph.EdgeID) bool) (wMax float64, scanned int) {
	v, snap := x.view, x.snap
	prune := !x.opt.DisableEdgePrune
	wMax = math.Inf(-1)
	ws, pcs, ids, admitTh := snap.w, snap.pc, snap.id, snap.admitTh
	pin, swap, wBar := v.pin, v.swap, v.wBar
	ctrs, rows, pres := v.ctrs, v.rows, x.present
	var lr randx.RNG // local generator copy, as in runTrialRNG
	if rng != nil {
		lr = *rng
	}
	words := &x.words
	last, ord := -1, 0 // last joined position; ordinal of the block's first member
	for bi := range v.blocks {
		b := &v.blocks[bi]
		in, wi := b.in, int(b.wi)
		base := wi << rngBlockShift
		if prune && b.first+wBar < wMax {
			return wMax, v.stopAt(ws, wMax, last, base+bits.TrailingZeros64(in), ord, bi)
		}
		var mask uint64
		if rng != nil {
			rm := b.drawn
			for k := range bits.OnesCount64(rm) {
				words[k] = lr.Uint64() >> 11
			}
			j := uint64(0) // members before this one that drew a word
			for m := in; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				mask |= ((words[j&(rngBlock-1)] - admitTh[base+k]) >> 63) << k
				j += rm >> k & 1
			}
		} else {
			for m := in; m != 0; m &= m - 1 {
				if k := bits.TrailingZeros64(m); present(ids[base+k]) {
					mask |= 1 << k
				}
			}
		}
		pres[wi] = mask
		for m := mask &^ b.early; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			p := base + k
			w := ws[p]
			if prune && w+wBar < wMax {
				return wMax, v.stopAt(ws, wMax, last, p, ord+bits.OnesCount64(in&(1<<k-1)), bi)
			}
			last = p
			// Lines 10–13: a pin edge pairs with each present earlier member
			// at its center, in position order, and a later member with its
			// center's pin edge, when that is present.
			uvp := pcs[p]
			ui, vj := bigraph.VertexID(uvp>>32), bigraph.VertexID(uvp)
			if swap {
				ui, vj = vj, ui
			}
			if ui == pin {
				c := &ctrs[vj]
				for _, e := range rows[c.lo:c.hi] {
					if pres[e.pos>>rngBlockShift]>>(e.pos&(rngBlock-1))&1 != 0 {
						wMax = x.addAngle(x.pinnedEntry(e.to), w+e.w, vj, wMax)
					}
				}
			} else if q := ctrs[vj].pin; pres[q>>rngBlockShift]>>(q&(rngBlock-1))&1 != 0 {
				wMax = x.addAngle(x.pinnedEntry(ui), w+ws[q], vj, wMax)
			}
		}
		ord += bits.OnesCount64(in)
	}
	if prune && v.n > 0 {
		bi := len(v.blocks) - 1
		b := &v.blocks[bi]
		if p := int(b.wi)<<rngBlockShift | (63 - bits.LeadingZeros64(b.in)); p > last && ws[p]+wBar < wMax {
			return wMax, v.stopAt(ws, wMax, last, p, v.n-1, bi)
		}
	}
	return wMax, v.n
}

// pinnedEntry returns the pool index of the angle entry for the pair of
// the pin and partner. Every pair of an anchored trial holds the pin, so
// the entry is found by partner alone, through live[partner], which an
// anchored trial does not otherwise use; its generation stamp drops the
// previous trial's entries.
func (x *osIndex) pinnedEntry(partner bigraph.VertexID) int32 {
	if m := x.live[partner]; m.gen == x.liveCur {
		return m.n
	}
	return x.newPinnedEntry(partner)
}

// newPinnedEntry claims the entry of the pin and partner for this trial.
func (x *osIndex) newPinnedEntry(partner bigraph.VertexID) int32 {
	a, b := x.view.pin, partner
	if a > b {
		a, b = b, a
	}
	ei := x.newEntry(a, b)
	x.live[partner] = liveMeta{n: ei, gen: x.liveCur}
	return ei
}

// AnchoredOS runs anchor-restricted Ordering Sampling: OS's trials over
// the anchor's view of g's cached global snapshot (see anchoredView and
// osIndex.runAnchored), so each of opt.Trials worlds credits its maximum
// set among the butterflies through the anchor. Its kernels come from the
// pool that global runs on g use, so a warm graph's anchored job builds
// none and copies no snapshot; a graph's first job, anchored or not,
// builds the global snapshot. An anchor with zero butterfly support
// yields an empty Result. Resume is not supported for anchored runs;
// Interrupt yields a partial Result without a checkpoint. An edge anchor
// rejects the KeepAllAngles and DropA2 knobs, which its angle entries
// have no room for; every other knob applies as in OS.
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
