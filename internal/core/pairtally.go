package core

import (
	"math/bits"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// pairMinMids is the smallest top angle class an OS worker credits by
// endpoint pair instead of by butterfly. A class of k middles that reaches
// w_max on its own (2·w1 = w_max) puts C(k, 2) butterflies into S_MB. The
// value is measured, not a knob (docs/ALGORITHMS.md, "The butterfly
// tally"): on the jester analogue 96% of the maximum butterflies sit in
// classes of at least four middles, and 2-worker queries took about as
// long at 3, 4 and 6; on the movielens analogue, whose maximum pairs
// mostly hold one or two butterflies, 3 would move 30% of them onto this
// path and 4 moves 8%.
const pairMinMids = 4

// pairWindow is the number of worker trials one pair tally window spans:
// one bit per trial in a uint64.
const pairWindow = 64

// pairTally is an OS worker's tally of whole top angle classes, the
// endpoint-pair form of Algorithm 2's lines 16–17 and 21–22. In place of
// a class's C(k, 2) butterflies, materializeList records the class here:
// for each of its k middles it sets bit t of the (pair, middle) word,
// where t is the worker's own trial count mod pairWindow. Every
// pairWindow trials, and when the worker finishes, flush credits each
// middle pair of each class with popcount(bits[i] & bits[j]) trials at
// once: exactly the trials in which both middles were in the pair's top
// class, the trials in which the butterfly would have been listed.
//
// A middle's angle weight α is fixed by its two edges, and two middles
// meet in a top class only when their angles tie, so a butterfly credited
// here always has weight 2α — the w_max the listing would have credited
// it with. Counts are exact integers, so the tally equals addMaxSet's
// after every flush. The scratch lives in the kernel and is pooled with
// it; only osWorker turns it on.
type pairTally struct {
	on   bool
	flip bool // the kernel's snapshot flip: middles are left vertices
	// hit reports that the current trial recorded a class.
	hit bool
	t   uint // bit of the current trial within the window

	pairAt  angleTable // endpoint-pair key → index into classes
	midAt   angleTable // class index<<32 | middle → index into its mids
	classes []pairClass
	n       int // classes[:n] are this window's; the rest is pooled storage
}

// pairClass is one endpoint pair's window: every middle that was in the
// pair's top class in a recorded trial of the window.
type pairClass struct {
	u1, u2 bigraph.VertexID
	mids   []pairMid
}

// pairMid is one (pair, middle) word: bit t is set when the middle was in
// the pair's recorded top class in trial t of the window, and w is 2α,
// the weight of a butterfly of this middle and a tied one.
type pairMid struct {
	m    bigraph.VertexID
	bits uint64
	w    float64
}

// record sets the current trial's bit for each middle of ent's top class.
func (p *pairTally) record(ent *angleEntry) {
	if p.pairAt.slots == nil {
		p.pairAt, p.midAt = newAngleTable(0), newAngleTable(0)
	}
	p.hit = true
	ci, found := p.pairAt.getOrPut(uint64(ent.u1)<<32|uint64(ent.u2), int32(p.n))
	if !found {
		if p.n == len(p.classes) {
			p.classes = append(p.classes, pairClass{})
		}
		p.classes[ci] = pairClass{u1: ent.u1, u2: ent.u2, mids: p.classes[ci].mids[:0]}
		p.n++
	}
	c := &p.classes[ci]
	bit, w := uint64(1)<<p.t, 2*ent.w1
	for _, m := range ent.mids1 {
		mi, found := p.midAt.getOrPut(uint64(ci)<<32|uint64(m), int32(len(c.mids)))
		if !found {
			c.mids = append(c.mids, pairMid{m: m, w: w})
		}
		c.mids[mi].bits |= bit
	}
}

// endTrial closes the current trial and reports whether it recorded a
// class; the window's last trial flushes it into acc.
func (p *pairTally) endTrial(acc *probAccumulator) (hit bool) {
	hit, p.hit = p.hit, false
	if p.t++; p.t == pairWindow {
		p.flush(acc)
	}
	return hit
}

// flush credits the window's middle pairs into acc and starts a new
// window. A pair of middles that never shared a trial gets no credit: a
// zero count would list a butterfly no trial reported.
func (p *pairTally) flush(acc *probAccumulator) {
	for _, c := range p.classes[:p.n] {
		for i, a := range c.mids {
			for _, b := range c.mids[i+1:] {
				if n := bits.OnesCount64(a.bits & b.bits); n > 0 {
					acc.credit(orient(p.flip, c.u1, c.u2, a.m, b.m), n, a.w)
				}
			}
		}
	}
	p.t, p.n = 0, 0
	p.pairAt.reset()
	p.midAt.reset()
}
