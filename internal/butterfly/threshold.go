package butterfly

import (
	"fmt"
	"sort"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// This file implements the threshold-based analysis of the paper's
// related work (Section II): enumerate every butterfly whose existence
// probability reaches a threshold t, discarding low-probability instances
// early — the general backbone-then-filter framework of UBFC-style
// algorithms, with wedge-level pruning.

// WithProb pairs a butterfly with its weight and existence probability.
type WithProb struct {
	B Butterfly
	W float64
	P float64 // Pr[E(B)] = product of the four edge probabilities
}

// EnumerateThreshold lists every backbone butterfly with
// Pr[E(B)] ≥ t, sorted by descending probability (ties by descending
// weight, then canonical order). Wedges are pruned early: a wedge whose
// two-edge probability product is already below t cannot be part of a
// qualifying butterfly, because the remaining two edges contribute a
// factor ≤ 1 — the same early-discarding idea the threshold literature
// applies during listing.
func EnumerateThreshold(g *bigraph.Graph, t float64) ([]WithProb, error) {
	if t < 0 || t > 1 {
		return nil, fmt.Errorf("butterfly: threshold %v outside [0,1]", t)
	}
	// Wedge accumulation keyed by left endpoint pair, like ExpectedCount,
	// but retaining the qualifying wedges per pair.
	type wedge struct {
		mid bigraph.VertexID
		p   float64 // product of the wedge's two edge probabilities
		w   float64 // sum of the wedge's two edge weights
	}
	wedges := make(map[uint64][]wedge)
	for v := 0; v < g.NumR(); v++ {
		nbrs := g.NeighborsR(bigraph.VertexID(v))
		for a := 0; a < len(nbrs); a++ {
			ea := g.Edge(nbrs[a].E)
			for b := a + 1; b < len(nbrs); b++ {
				eb := g.Edge(nbrs[b].E)
				p := ea.P * eb.P
				if p < t {
					continue // wedge prune: no completion can recover
				}
				u1, u2 := nbrs[a].To, nbrs[b].To
				if u1 > u2 {
					u1, u2 = u2, u1
				}
				key := uint64(u1)<<32 | uint64(u2)
				wedges[key] = append(wedges[key], wedge{
					mid: bigraph.VertexID(v),
					p:   p,
					w:   ea.W + eb.W,
				})
			}
		}
	}
	var out []WithProb
	for key, list := range wedges {
		u1 := bigraph.VertexID(key >> 32)
		u2 := bigraph.VertexID(key & 0xffffffff)
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				p := list[i].p * list[j].p
				if p < t {
					continue
				}
				b := New(u1, u2, list[i].mid, list[j].mid)
				w, ok := b.Weight(g) // canonical summation order
				if !ok {
					panic("butterfly: threshold wedge pair lost its edges")
				}
				out = append(out, WithProb{B: b, W: w, P: p})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P > out[j].P
		}
		if out[i].W != out[j].W {
			return out[i].W > out[j].W
		}
		a, b := out[i].B, out[j].B
		if a.U1 != b.U1 {
			return a.U1 < b.U1
		}
		if a.U2 != b.U2 {
			return a.U2 < b.U2
		}
		if a.V1 != b.V1 {
			return a.V1 < b.V1
		}
		return a.V2 < b.V2
	})
	return out, nil
}
