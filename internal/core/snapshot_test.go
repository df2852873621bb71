package core

import (
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// TestEdgeSupportMatchesBruteForce: edgeSupport must equal, for every
// edge, the number of backbone butterflies listed by butterfly.AllBackbone
// that contain it. Every other graph is transposed, so the cheaper wedge
// side — the one the count centers on — is the left side in some graphs
// and the right side in others.
func TestEdgeSupportMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var leftCenters, rightCenters int
	for i := 0; i < 60; i++ {
		numL, numR := 2+r.Intn(3), 6+r.Intn(5)
		if i%2 == 1 {
			numL, numR = numR, numL
		}
		b := bigraph.NewBuilder(numL, numR)
		for u := 0; u < numL; u++ {
			for v := 0; v < numR; v++ {
				if r.Intn(3) > 0 {
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), halfGrid[r.Intn(len(halfGrid))], 0.5)
				}
			}
		}
		g := b.Build()
		var sumL2, sumR2 int
		for u := 0; u < numL; u++ {
			sumL2 += g.DegreeL(bigraph.VertexID(u)) * g.DegreeL(bigraph.VertexID(u))
		}
		for v := 0; v < numR; v++ {
			sumR2 += g.DegreeR(bigraph.VertexID(v)) * g.DegreeR(bigraph.VertexID(v))
		}
		if sumR2 <= sumL2 {
			leftCenters++
		} else {
			rightCenters++
		}

		want := make([]int32, g.NumEdges())
		for _, bw := range butterfly.AllBackbone(g) {
			ids, _ := bw.B.EdgeIDs(g)
			for _, id := range ids {
				want[id]++
			}
		}
		got := edgeSupport(g)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("graph %d (%dx%d) edge %d: support %d, want %d", i, numL, numR, id, got[id], want[id])
			}
		}
	}
	if leftCenters == 0 || rightCenters == 0 {
		t.Fatalf("centers: %d graphs on the left, %d on the right; want both sides", leftCenters, rightCenters)
	}
}
