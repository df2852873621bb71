package core

import (
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// These tests pin the batched-RNG draw schedule of the v2 kernel
// (snapshot.go: wordOf/ndraws, os.go: the block mask loop) against the
// frozen seed implementation at exactly the places a positional schedule
// can break: deterministic edges (p ∈ {0, 1} consume no draw) and edge
// counts straddling the rngBlock boundary.

// TestBatchRNGDeterministicBoundaries drives the kernel across
// probability patterns dominated by the p ∈ {0, 1} boundaries — where
// randx.Bernoulli consumes no generator word, so any off-by-one in the
// per-block draw schedule shifts every later draw and changes Results.
// The full Result must stay bit-identical to the frozen osref.go seed
// implementation.
func TestBatchRNGDeterministicBoundaries(t *testing.T) {
	cases := []struct {
		name string
		p    func(r *rand.Rand, i int) float64
	}{
		{"all_absent", func(r *rand.Rand, i int) float64 { return 0 }},
		{"all_present", func(r *rand.Rand, i int) float64 { return 1 }},
		{"alternating_01", func(r *rand.Rand, i int) float64 { return float64(i % 2) }},
		{"present_plus_random", func(r *rand.Rand, i int) float64 {
			if i%3 == 0 {
				return 1
			}
			return 0.2 + 0.6*r.Float64()
		}},
		{"absent_plus_random", func(r *rand.Rand, i int) float64 {
			if i%3 == 0 {
				return 0
			}
			return 0.2 + 0.6*r.Float64()
		}},
		{"boundary_heavy", func(r *rand.Rand, i int) float64 {
			switch x := r.Float64(); {
			case x < 0.4:
				return 0
			case x < 0.8:
				return 1
			default:
				return 0.1 + 0.8*r.Float64()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(991))
			const numL, numR = 6, 5
			b := bigraph.NewBuilder(numL, numR)
			i := 0
			for u := 0; u < numL; u++ {
				for v := 0; v < numR; v++ {
					w := halfGrid[r.Intn(len(halfGrid))]
					b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, tc.p(r, i))
					i++
				}
			}
			g := b.Build()
			opt := OSOptions{Trials: 400, Seed: 77}
			ref, err := OSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "batched RNG boundary "+tc.name, ref, got)
		})
	}
}

// TestBatchRNGBlockSizeEdgeCases sweeps edge counts that straddle the
// rngBlock=64 batching boundary (a final partial block, exactly one
// block, one block plus one edge, and multi-block counts) and requires
// bit-identical Results against the seed implementation. Probabilities
// come from probGrid, which includes the 0/1 endpoints, so partial
// blocks mix draw-consuming and deterministic positions.
func TestBatchRNGBlockSizeEdgeCases(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 130, 200} {
		r := rand.New(rand.NewSource(int64(1000 + n)))
		const numL, numR = 20, 10 // 200 possible pairs, enough for every n
		b := bigraph.NewBuilder(numL, numR)
		for i := 0; i < n; i++ {
			u, v := i%numL, (i/numL)%numR
			w := halfGrid[r.Intn(len(halfGrid))]
			p := probGrid[r.Intn(len(probGrid))]
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, p)
		}
		g := b.Build()
		for _, seed := range []uint64{1, 42} {
			opt := OSOptions{Trials: 300, Seed: seed}
			ref, err := OSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "block-size edge case", ref, got)
		}
	}
}

// FuzzKernelVsSeed builds a small uncertain bipartite graph from raw
// fuzz bytes (weights on the exact-tie half grid, probabilities from the
// grid including the 0/1 endpoints) and cross-checks the v2 kernel's
// full Result against the frozen seed implementation.
func FuzzKernelVsSeed(f *testing.F) {
	f.Add(uint64(1), []byte{0, 17, 34, 51, 68, 85, 102, 119, 136, 153})
	f.Add(uint64(9), []byte{255, 254, 3, 7, 11, 200, 100, 50})
	f.Add(uint64(42), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) == 0 {
			t.Skip()
		}
		if len(raw) > 25 {
			raw = raw[:25]
		}
		const numL, numR = 5, 5
		b := bigraph.NewBuilder(numL, numR)
		seen := make(map[int]bool)
		for i, by := range raw {
			slot := i % (numL * numR)
			if seen[slot] {
				continue
			}
			seen[slot] = true
			w := halfGrid[int(by)%len(halfGrid)]
			p := probGrid[int(by/16)%len(probGrid)]
			b.MustAddEdge(bigraph.VertexID(slot%numL), bigraph.VertexID(slot/numL), w, p)
		}
		g := b.Build()
		opt := OSOptions{Trials: 60, Seed: seed%1009 + 1}
		ref, err := OSReference(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "fuzz kernel vs seed", ref, got)
	})
}

// FuzzOptimizedVsSeed builds the graphs of FuzzKernelVsSeed, whose
// half-grid weights tie often, lists every backbone butterfly as a
// candidate, and cross-checks the optimized estimator on 1 and 3 workers
// against the frozen seed loop: each estimate of the heaviest weight class
// at its exact Pr[E(B)], every other estimate bit for bit.
func FuzzOptimizedVsSeed(f *testing.F) {
	f.Add(uint64(1), []byte{0, 17, 34, 51, 68, 85, 102, 119, 136, 153})
	f.Add(uint64(9), []byte{255, 254, 3, 7, 11, 200, 100, 50})
	f.Add(uint64(42), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) == 0 {
			t.Skip()
		}
		if len(raw) > 25 {
			raw = raw[:25]
		}
		const numL, numR = 5, 5
		b := bigraph.NewBuilder(numL, numR)
		seen := make(map[int]bool)
		for i, by := range raw {
			slot := i % (numL * numR)
			if seen[slot] {
				continue
			}
			seen[slot] = true
			w := halfGrid[int(by)%len(halfGrid)]
			p := probGrid[int(by/16)%len(probGrid)]
			b.MustAddEdge(bigraph.VertexID(slot%numL), bigraph.VertexID(slot/numL), w, p)
		}
		cands, err := AllBackboneCandidates(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		opt := OptimizedOptions{Trials: 60, Seed: seed%1009 + 1}
		ref, err := ReferenceEstimateOptimized(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := topClassPriced(cands.result("ols", ref, opt.Trials, 0), cands)
		for _, workers := range []int{1, 3} {
			o := opt
			o.Executor = &LocalExecutor{Workers: workers}
			got, err := EstimateOptimized(cands, o)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "fuzz optimized vs seed", want, cands.result("ols", got, opt.Trials, 0))
		}
	})
}
