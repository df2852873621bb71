package mpmb_test

import (
	"fmt"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// buildFigure1 constructs the paper's running example network.
func buildFigure1() *mpmb.Graph {
	b := mpmb.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5) // (u1, v1)
	b.MustAddEdge(0, 1, 2, 0.6) // (u1, v2)
	b.MustAddEdge(0, 2, 1, 0.8) // (u1, v3)
	b.MustAddEdge(1, 0, 3, 0.3) // (u2, v1)
	b.MustAddEdge(1, 1, 3, 0.4) // (u2, v2)
	b.MustAddEdge(1, 2, 1, 0.7) // (u2, v3)
	return b.Build()
}

// Exact enumeration is feasible for small graphs and gives the true
// P(B) of every butterfly.
func ExampleExact() {
	g := buildFigure1()
	res, err := mpmb.Exact(g)
	if err != nil {
		panic(err)
	}
	best, _ := res.Best()
	fmt.Printf("MPMB %v has weight %g and P=%.4f\n", best.B, best.Weight, best.P)
	// Output:
	// MPMB B(0,1|1,2) has weight 7 and P=0.1142
}

// Search with MethodOS samples possible worlds with the Ordering Sampling
// algorithm; with a fixed Seed the result is reproducible.
func ExampleSearch_orderingSampling() {
	g := buildFigure1()
	res, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOS, Trials: 20000, Seed: 42})
	if err != nil {
		panic(err)
	}
	best, _ := res.Best()
	fmt.Printf("estimated MPMB is %v\n", best.B)
	// Output:
	// estimated MPMB is B(0,1|1,2)
}

// RequiredTrials sizes a sampling budget from the paper's ε-δ theory.
func ExampleRequiredTrials() {
	n, err := mpmb.RequiredTrials(0.05, 0.1, 0.1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("probabilities ≥ 0.05 need %d trials for 10%% error at 90%% confidence\n", n)
	// Output:
	// probabilities ≥ 0.05 need 23966 trials for 10% error at 90% confidence
}

// CountButterflies and ExpectedButterflies summarize a network's
// butterfly structure without any search.
func ExampleCountButterflies() {
	g := buildFigure1()
	fmt.Printf("backbone butterflies: %d, expected per world: %.4f\n",
		mpmb.CountButterflies(g), mpmb.ExpectedButterflies(g))
	// Output:
	// backbone butterflies: 3, expected per world: 0.2544
}
