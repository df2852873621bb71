// Command protein demonstrates MPMB search at scale on the
// protein-interaction analogue of the paper's largest dataset (STRING):
// hundreds of thousands of uncertain edges, where only the
// Ordering-Listing methods remain practical. It sizes the trial budget
// from the paper's ε-δ theory, compares the optimized estimator against
// Karp-Luby on the same candidate set, and prints the top interactions.
//
// Run with:
//
//	go run ./examples/protein
package main

import (
	"fmt"
	"log"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
)

func main() {
	t0 := time.Now()
	d, err := mpmb.GenerateDataset("protein", mpmb.DatasetConfig{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	g := d.G
	fmt.Printf("protein network: %d × %d proteins, %d interactions (generated in %v)\n",
		g.NumL(), g.NumR(), g.NumEdges(), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("probabilities: %s; weights: %s\n\n", d.ProbDesc, d.WeightDesc)

	// Size the sampling budget from Theorem IV.1: to pin down
	// probabilities ≥ 0.05 within 10% relative error at 90% confidence.
	trials, err := mpmb.RequiredTrials(0.05, 0.1, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem IV.1 trial bound for (μ=0.05, ε=δ=0.1): %d trials\n", trials)
	// A demo does not need the full guarantee; scale down but keep the
	// ratio honest in the printout.
	demoTrials := trials / 10
	fmt.Printf("running with %d trials (1/10 of the bound, demo scale)\n\n", demoTrials)

	opt := mpmb.Options{Trials: demoTrials, PrepTrials: 100, Seed: 11, Mu: 0.05}

	t0 = time.Now()
	ols, err := mpmb.Search(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	olsTime := time.Since(t0)

	t0 = time.Now()
	opt.Method = mpmb.MethodOLSKL
	kl, err := mpmb.Search(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	klTime := time.Since(t0)

	fmt.Printf("OLS    (Alg. 5 estimator): %8v, %d candidates priced\n", olsTime.Round(time.Millisecond), len(ols.Estimates))
	fmt.Printf("OLS-KL (Alg. 4 estimator): %8v, %d candidates priced\n\n", klTime.Round(time.Millisecond), len(kl.Estimates))

	fmt.Println("top-5 most probable maximum-weight interaction quadruples (OLS):")
	for i, e := range ols.TopK(5) {
		klE, _ := kl.Lookup(e.B)
		fmt.Printf("  #%d proteins L(%d,%d) × R(%d,%d)  score=%.3f  P̂=%.3f (KL agrees: %.3f)\n",
			i+1, e.B.U1, e.B.U2, e.B.V1, e.B.V2, e.Weight, e.P, klE.P)
	}
}
