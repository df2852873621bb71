// Command recommend reproduces the paper's Use Case 1 (Figure 2):
// user-based collaborative filtering on an uncertain user–item network,
// where MPMB search with cold-item reward weights surfaces recommendations
// that plain most-probable-butterfly search misses.
//
// The first part is the paper's exact toy instance: Alice and Bob share
// two hot interests (football, Harry Potter — butterfly probability
// 0.5184) and two cold ones (skating, chess — probability 0.2352 but
// reward-weighted to 4.8). The MPMB is the cold butterfly: weight beats
// raw probability, diversifying the recommendation.
//
// The second part runs top-k MPMB on a MovieLens-like synthetic rating
// graph and turns the result into concrete "users like you also liked"
// suggestions.
//
// Run with:
//
//	go run ./examples/recommend
package main

import (
	"fmt"
	"log"

	mpmb "github.com/uncertain-graphs/mpmb"
)

func main() {
	figure2()
	fmt.Println()
	movieRecommendations()
}

// figure2 builds the Figure 2 network. Users: Alice=0, Bob=1. Items:
// football=0, Harry Potter=1, skating=2, chess=3. Hot-item edges keep
// weight 1; cold-item edges get the 1.2 reward weight the optimized
// UserCF variants assign.
func figure2() {
	users := []string{"Alice", "Bob"}
	items := []string{"football", "Harry Potter", "skating", "chess"}

	b := mpmb.NewBuilder(len(users), len(items))
	b.MustAddEdge(0, 0, 1.0, 0.9) // Alice – football
	b.MustAddEdge(0, 1, 1.0, 0.8) // Alice – Harry Potter
	b.MustAddEdge(1, 0, 1.0, 0.9) // Bob   – football
	b.MustAddEdge(1, 1, 1.0, 0.8) // Bob   – Harry Potter
	b.MustAddEdge(0, 2, 1.2, 0.7) // Alice – skating (cold: reward 1.2)
	b.MustAddEdge(0, 3, 1.2, 0.6) // Alice – chess
	b.MustAddEdge(1, 2, 1.2, 0.8) // Bob   – skating
	b.MustAddEdge(1, 3, 1.2, 0.7) // Bob   – chess
	g := b.Build()

	hot := mpmb.NewButterfly(0, 1, 0, 1)
	cold := mpmb.NewButterfly(0, 1, 2, 3)
	hotPr, _ := hot.ExistProb(g)
	coldPr, _ := cold.ExistProb(g)
	hotW, _ := hot.Weight(g)
	coldW, _ := cold.Weight(g)
	fmt.Println("Figure 2 — the two butterflies the paper contrasts:")
	fmt.Printf("  hot  (%s, %s):  Pr=%.4f  w=%.1f\n", items[0], items[1], hotPr, hotW)
	fmt.Printf("  cold (%s, %s):        Pr=%.4f  w=%.1f\n", items[2], items[3], coldPr, coldW)

	// Under the MPMB objective the reward weights flip the ranking: the
	// cold butterfly, whenever it exists, outweighs the hot one, so its
	// probability of being maximum stays near its existence probability
	// while the hot butterfly is usually dominated.
	hotP, err := mpmb.ExactProb(g, hot)
	if err != nil {
		log.Fatal(err)
	}
	coldP, err := mpmb.ExactProb(g, cold)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact P(hot being maximum)  = %.4f\n", hotP)
	fmt.Printf("exact P(cold being maximum) = %.4f  <- the diversity rec wins\n", coldP)

	// With both interest groups in one graph, the overall MPMB may even
	// be a mixed hot+cold butterfly — print the true optimum too.
	res, err := mpmb.Exact(g)
	if err != nil {
		log.Fatal(err)
	}
	best, _ := res.Best()
	fmt.Printf("overall MPMB of the combined graph: users(%s,%s) × items(%s,%s), P=%.4f\n",
		users[best.B.U1], users[best.B.U2], items[best.B.V1], items[best.B.V2], best.P)
}

// movieRecommendations runs top-k MPMB over a synthetic MovieLens-like
// graph and prints item suggestions derived from the butterflies: each
// butterfly B(u1,u2 | v1,v2) says "u1 and u2 reliably co-like v1 and v2",
// so each user is recommended the other's items.
func movieRecommendations() {
	d, err := mpmb.GenerateDataset("movielens", mpmb.DatasetConfig{Seed: 7, Scale: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	g := d.G
	fmt.Printf("MovieLens-like rating graph: %d users × %d movies, %d ratings\n",
		g.NumL(), g.NumR(), g.NumEdges())

	opt := mpmb.DefaultOptions()
	opt.Trials = 5000 // plenty for a demo
	opt.Seed = 7
	res, err := mpmb.Search(g, opt)
	if err != nil {
		log.Fatal(err)
	}

	const k = 5
	fmt.Printf("top-%d MPMBs (strongest reliable taste overlaps):\n", k)
	for i, e := range res.TopK(k) {
		fmt.Printf("  #%d users(%d,%d) × movies(%d,%d)  weight=%.1f  P̂=%.3f\n",
			i+1, e.B.U1, e.B.U2, e.B.V1, e.B.V2, e.Weight, e.P)
		fmt.Printf("      → recommend movie %d to any user who liked movie %d (and vice versa)\n",
			e.B.V2, e.B.V1)
	}
}
