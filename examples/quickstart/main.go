// Command quickstart reproduces the paper's running example (Figure 1):
// an uncertain bipartite network with two left vertices (u1, u2) and
// three right vertices (v1, v2, v3), searched for its Most Probable
// Maximum Weighted Butterfly with every method the library provides.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	mpmb "github.com/uncertain-graphs/mpmb"
)

func main() {
	// Build the Figure 1 network: each edge has a weight and an
	// existence probability.
	b := mpmb.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5) // (u1, v1)
	b.MustAddEdge(0, 1, 2, 0.6) // (u1, v2)
	b.MustAddEdge(0, 2, 1, 0.8) // (u1, v3)
	b.MustAddEdge(1, 0, 3, 0.3) // (u2, v1)
	b.MustAddEdge(1, 1, 3, 0.4) // (u2, v2)
	b.MustAddEdge(1, 2, 1, 0.7) // (u2, v3)
	g := b.Build()

	fmt.Printf("graph: |L|=%d |R|=%d |E|=%d\n\n", g.NumL(), g.NumR(), g.NumEdges())

	// This graph has only 6 edges (64 possible worlds), so the exact
	// answer is computable — the sampling methods should agree with it.
	exact, err := mpmb.Exact(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact P(B) for every butterfly:")
	for _, e := range exact.Estimates {
		fmt.Printf("  %-14s weight=%-4g P=%.4f\n", e.B, e.Weight, e.P)
	}
	fmt.Println()

	opt := mpmb.DefaultOptions() // the paper's 2×10⁴-trial setup
	opt.Seed = 42
	for _, m := range []mpmb.Method{mpmb.MethodMCVP, mpmb.MethodOS, mpmb.MethodOLSKL, mpmb.MethodOLS} {
		opt.Method = m
		res, err := mpmb.Search(g, opt)
		if err != nil {
			log.Fatal(err)
		}
		best, ok := res.Best()
		if !ok {
			log.Fatalf("%s found no butterfly", m)
		}
		fmt.Printf("%-7s MPMB = %-14s weight=%-4g P̂=%.4f (trials=%d)\n",
			m, best.B, best.Weight, best.P, res.Trials)
	}

	// The top-k extension (Section VII): more than one important region.
	res, err := mpmb.Search(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-3 MPMBs (OLS):")
	for i, e := range res.TopK(3) {
		fmt.Printf("  #%d %-14s weight=%-4g P̂=%.4f\n", i+1, e.B, e.Weight, e.P)
	}
}
