// Command brainnet reproduces the paper's Use Case 2 (Figure 3): top-10
// MPMB search over uncertain brain networks built from inter-hemisphere
// region connections.
//
// Vertices are regions of interest (ROIs), left hemisphere vs right
// hemisphere; edge weight is the physical distance between two ROIs and
// edge probability their activity correlation. The paper contrasts a
// Typical Controls (TC) group with an Autism Spectrum Disorder (ASD)
// group, whose long-range connections are weaker. Here the TC network is
// the ABIDE-like synthetic dataset, and the ASD network is derived from
// it by damping the correlation of long connections — the documented
// clinical signature. The top-10 MPMBs of the TC brain should therefore
// span visibly longer, stronger connections than the ASD ones.
//
// Run with:
//
//	go run ./examples/brainnet
package main

import (
	"fmt"
	"log"

	mpmb "github.com/uncertain-graphs/mpmb"
)

func main() {
	tcData, err := mpmb.GenerateDataset("abide", mpmb.DatasetConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	tc := tcData.G
	asd := dampLongConnections(tc)

	fmt.Printf("brain network: %d × %d ROIs, %d inter-hemisphere connections\n\n",
		tc.NumL(), tc.NumR(), tc.NumEdges())

	opt := mpmb.DefaultOptions()
	opt.Trials = 5000
	// A diffuse brain network spreads probability over many butterflies;
	// extra preparing trials widen the candidate set so ten
	// vertex-disjoint regions can be selected (Lemma VI.1).
	opt.PrepTrials = 600
	opt.Seed = 3

	for _, group := range []struct {
		name string
		g    *mpmb.Graph
	}{{"TC (typical controls)", tc}, {"ASD (autism spectrum)", asd}} {
		res, err := mpmb.Search(group.g, opt)
		if err != nil {
			log.Fatal(err)
		}
		// Vertex-disjoint selection scatters the ten markers across
		// distinct ROI clusters, as in the paper's Figure 3 rendering.
		top := res.TopKDisjoint(10)
		fmt.Printf("%s — top-10 vertex-disjoint MPMBs:\n", group.name)
		var sumW, sumP float64
		for i, e := range top {
			fmt.Printf("  #%-2d ROIs L(%d,%d) × R(%d,%d)  span=%.1fmm  P̂=%.3f\n",
				i+1, e.B.U1, e.B.U2, e.B.V1, e.B.V2, e.Weight, e.P)
			sumW += e.Weight
			sumP += e.P
		}
		if len(top) > 0 {
			fmt.Printf("  mean butterfly span %.1fmm, mean probability %.3f\n\n",
				sumW/float64(len(top)), sumP/float64(len(top)))
		}
	}
	fmt.Println("Expected signature (paper Fig. 3): the TC group's butterflies span")
	fmt.Println("longer distances at higher probability; the ASD group's long-range")
	fmt.Println("activity is depressed, concentrating its butterflies on short spans.")
}

// dampLongConnections derives the ASD-group network: connections longer
// than the median distance lose most of their correlation, modelling the
// lack of long-range connectivity the paper describes in ASD patients.
func dampLongConnections(tc *mpmb.Graph) *mpmb.Graph {
	edges := tc.Edges()
	total := 0.0
	for _, e := range edges {
		total += e.W
	}
	mean := total / float64(len(edges))

	damped := make([]mpmb.Edge, len(edges))
	for i, e := range edges {
		d := e
		if e.W > mean {
			d.P = e.P * 0.35
		}
		damped[i] = d
	}
	g, err := mpmb.FromEdges(tc.NumL(), tc.NumR(), damped)
	if err != nil {
		log.Fatal(err)
	}
	return g
}
