package core

import (
	"math"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// This file freezes the SEED implementation of the OS trial loop, exactly
// as it ran before the flat-memory kernel rewrite: map-keyed angle tables
// cleared per trial, per-trial Derive allocations, float-math Bernoulli
// per edge, per-right-vertex slice adjacency. It serves two referees:
//
//   - the equivalence tests, whose frozen reference runners (osref_test.go)
//     drive it and assert that the kernel's Results are bit-identical to
//     theirs seed for seed; and
//   - the benchmark trajectory harness (internal/bench, `mpmb-bench
//     perf`), which records the reference's ns/trial as the pre-rewrite
//     baseline inside BENCH_core.json so every future PR can diff the
//     kernel against where it started.
//
// Do not "optimize" anything here — the whole point is that this code
// stays what the seed was.

// osRefIndex is the seed implementation's per-graph state: sorted edge
// ids resolved through the AoS edge table, a map-keyed angle-entry index
// cleared per trial, and per-right-vertex adjacency slices.
type osRefIndex struct {
	g      *bigraph.Graph
	opt    OSOptions
	sorted []bigraph.EdgeID // edge ids by descending weight (line 1)
	wBar   float64          // w(e1)+w(e2)+w(e3) (line 2)

	// nE[v] is N̂_E(v): live, already-processed edges incident to right
	// vertex v, as (left endpoint, edge id) pairs.
	nE        [][]bigraph.Half
	nETouched []bigraph.VertexID

	// Angle tables A1/A2 keyed by the canonical left endpoint pair.
	entries map[uint64]int32
	pool    []angleEntry
	poolN   int
}

func newOSRefIndex(g *bigraph.Graph, opt OSOptions) *osRefIndex {
	return &osRefIndex{
		g:       g,
		opt:     opt,
		sorted:  g.EdgesByWeightDesc(),
		wBar:    g.TopWeightSum(3),
		nE:      make([][]bigraph.Half, g.NumR()),
		entries: make(map[uint64]int32),
	}
}

func (x *osRefIndex) resetTrial() {
	for _, v := range x.nETouched {
		x.nE[v] = x.nE[v][:0]
	}
	x.nETouched = x.nETouched[:0]
	clear(x.entries)
	x.poolN = 0
}

// entryFor returns the pool index of the (possibly new) angle entry for
// endpoint pair {a, b}. Like the kernel it hands out an index, not a
// pointer: the pool grows by append, and a pointer held across a call
// would dangle after a reallocation (the original seed returned pointers
// and survived only because no caller kept one across calls).
func (x *osRefIndex) entryFor(a, b bigraph.VertexID) int32 {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if i, ok := x.entries[key]; ok {
		return i
	}
	i := int32(x.poolN)
	if x.poolN == len(x.pool) {
		x.pool = append(x.pool, angleEntry{})
	}
	e := &x.pool[i]
	e.mids1 = e.mids1[:0]
	e.mids2 = e.mids2[:0]
	e.all = e.all[:0]
	e.u1, e.u2 = a, b
	e.w1, e.w2 = math.Inf(-1), math.Inf(-1)
	x.entries[key] = i
	x.poolN++
	return i
}

// runTrial is the seed trial loop, verbatim: AoS edge loads, map probes
// per angle, oracle call per edge.
func (x *osRefIndex) runTrial(sMB *butterfly.MaxSet, present func(bigraph.EdgeID) bool) {
	x.resetTrial()
	sMB.Reset()
	g := x.g
	wMax := math.Inf(-1)

	for _, eid := range x.sorted {
		e := g.Edge(eid)
		if !x.opt.DisableEdgePrune && e.W+x.wBar < wMax { // line 9
			break
		}
		if !present(eid) {
			continue
		}
		ui, vj := e.U, e.V
		for _, hb := range x.nE[vj] { // line 10: e_b = (v_j, u_k)
			uk := hb.To
			if uk == ui {
				continue
			}
			angleW := e.W + g.Edge(hb.E).W // line 11: ∠_new = e_a ⊕ e_b
			ei := x.entryFor(ui, uk)
			ent := &x.pool[ei]
			if x.opt.KeepAllAngles {
				ent.all = append(ent.all, midW{mid: vj, w: angleW})
			}
			if x.opt.DropA2 {
				ent.updateDropA2(angleW, vj)
			} else {
				ent.update(angleW, vj) // line 12, Table II
			}
			if bw := ent.bestWeight(); bw > wMax {
				wMax = bw // line 13
			}
		}
		if len(x.nE[vj]) == 0 {
			x.nETouched = append(x.nETouched, vj)
		}
		x.nE[vj] = append(x.nE[vj], bigraph.Half{To: ui, E: eid}) // line 14
	}

	if math.IsInf(wMax, -1) {
		return // no butterfly in this world
	}

	// Lines 15–20: materialize exactly the butterflies of weight w_max.
	for i := 0; i < x.poolN; i++ {
		ent := &x.pool[i]
		if x.opt.KeepAllAngles {
			for a := 0; a < len(ent.all); a++ {
				for b := a + 1; b < len(ent.all); b++ {
					if ent.all[a].mid == ent.all[b].mid {
						continue
					}
					if w := ent.all[a].w + ent.all[b].w; w == wMax {
						sMB.Add(butterfly.New(ent.u1, ent.u2, ent.all[a].mid, ent.all[b].mid), wMax)
					}
				}
			}
			continue
		}
		switch {
		case len(ent.mids1) >= 2 && 2*ent.w1 == wMax: // line 16
			for a := 0; a < len(ent.mids1); a++ {
				for b := a + 1; b < len(ent.mids1); b++ {
					sMB.Add(butterfly.New(ent.u1, ent.u2, ent.mids1[a], ent.mids1[b]), wMax)
				}
			}
		case len(ent.mids1) == 1 && len(ent.mids2) >= 1 && ent.w1+ent.w2 == wMax: // line 18
			for _, m2 := range ent.mids2 {
				sMB.Add(butterfly.New(ent.u1, ent.u2, ent.mids1[0], m2), wMax)
			}
		}
	}
}
