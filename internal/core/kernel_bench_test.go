package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// benchGraph builds the fixed corpus the kernel benchmarks (and the CI
// benchstat job) run on: deterministic, butterfly-dense, large enough
// that a trial does real angle work but small enough for -short CI runs.
func benchGraph() *bigraph.Graph {
	r := rand.New(rand.NewSource(1009))
	const numL, numR, numE = 200, 200, 4000
	b := bigraph.NewBuilder(numL, numR)
	seen := make(map[[2]int]bool)
	for added := 0; added < numE; {
		u, v := r.Intn(numL), r.Intn(numR)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		w := halfGrid[r.Intn(len(halfGrid))]
		p := 0.05 + 0.9*r.Float64()
		b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), w, p)
		added++
	}
	return b.Build()
}

// BenchmarkSnapshotBuild times one global snapshot build
// (newEdgeSnapshot: the weight order, the layout, the butterfly-membership
// pass and the kernel tables), the set-up a new graph pays once. "bench"
// is the kernel corpus above; "dense" is a 400×400 graph at 40% density
// with continuous weights, where the membership pass's Σd² wedge work
// dominates.
func BenchmarkSnapshotBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1013))
	dense := bigraph.NewBuilder(400, 400)
	for u := 0; u < 400; u++ {
		for v := 0; v < 400; v++ {
			if r.Float64() < 0.4 {
				dense.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), r.Float64()*10, 0.05+0.9*r.Float64())
			}
		}
	}
	for _, c := range []struct {
		name string
		g    *bigraph.Graph
	}{{"bench", benchGraph()}, {"dense", dense.Build()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newEdgeSnapshot(c.g, runtime.GOMAXPROCS(0))
			}
		})
	}
}

// BenchmarkOSKernelTrial times one flat-kernel Ordering Sampling trial.
// This is the headline number of the benchmark trajectory; compare it
// against BenchmarkOSReferenceTrial for the kernel-vs-seed speedup.
func BenchmarkOSKernelTrial(b *testing.B) {
	g := benchGraph()
	// The cached snapshot's kernel (support-sharpened budgets) is the
	// production entry point, so this row measures the same code path OS
	// and the parallel workers run.
	idx := snapshotFor(g).kernel(g, OSOptions{})
	root := randx.New(42)
	var sMB butterfly.MaxSet
	for t := 1; t <= 128; t++ {
		idx.runTrialSeeded(root, uint64(t), &sMB) // steady-state warmup
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.runTrialSeeded(root, uint64(i)+1, &sMB)
	}
}

// BenchmarkAnchoredOSTrial times one anchored trial on the same corpus,
// anchored where `mpmb-bench perf` anchors its anchored_os row by
// default: the left endpoint of the heaviest edge. The kernel scans the
// anchor's own snapshot, gathered once here from the cached global
// snapshot as an anchored job gathers it; compare it against
// BenchmarkOSKernelTrial for the cost of the restricted query against the
// global one.
func BenchmarkAnchoredOSTrial(b *testing.B) {
	g := benchGraph()
	a := Anchor{Kind: AnchorLeft, U: g.Edge(g.EdgesByWeightDesc()[0]).U}
	idx := anchoredKernel(g, a, OSOptions{})
	root := randx.New(42)
	var sMB butterfly.MaxSet
	for t := 1; t <= 128; t++ {
		idx.runTrialSeeded(root, uint64(t), &sMB) // steady-state warmup
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.runTrialSeeded(root, uint64(i)+1, &sMB)
	}
}

// BenchmarkAnchoredOSJob times a whole 256-trial anchored job on the same
// corpus and anchor, on one and two workers: gathering the anchor's
// snapshot, the trials on kernels borrowed from the global snapshot's
// pool, and the join. Its B/op is what an anchored job allocates on a
// cached graph.
func BenchmarkAnchoredOSJob(b *testing.B) {
	g := benchGraph()
	a := Anchor{Kind: AnchorLeft, U: g.Edge(g.EdgesByWeightDesc()[0]).U}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnchoredOSParallel(g, a, OSOptions{Trials: 256, Seed: 42}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOSReferenceTrial times one seed-implementation trial on the
// same corpus and seeds — the pre-rewrite baseline.
func BenchmarkOSReferenceTrial(b *testing.B) {
	g := benchGraph()
	idx := newOSRefIndex(g, OSOptions{})
	root := randx.New(42)
	var sMB butterfly.MaxSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := root.Derive(uint64(i) + 1)
		idx.runTrial(&sMB, func(id bigraph.EdgeID) bool {
			return rng.Bernoulli(g.Edge(id).P)
		})
	}
}

// BenchmarkOSParallelRun times a full parallel OS run (batched chunk
// dispatch, per-worker kernels) end to end.
func BenchmarkOSParallelRun(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OSParallel(g, OSOptions{Trials: 200, Seed: 42}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOSTieJob times a 256-trial ExecOS job on the tie-heavy
// fixture, on one and two workers: the kernel scan plus crediting each
// trial's maximum set, most of it by endpoint pair, and the join. The
// corpus above has few ties, so no other benchmark times the credit path.
func BenchmarkOSTieJob(b *testing.B) {
	g := tieGraph()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := execute(nil, workers, &ExecJob{Kind: ExecOS, Graph: g, Seed: 42, Units: 256}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizedEstimatorTrial times one optimized-estimator trial
// over a prepared candidate set.
func BenchmarkOptimizedEstimatorTrial(b *testing.B) {
	g := benchGraph()
	cands, err := PrepareCandidates(g, 50, 42, OSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if cands.Len() == 0 {
		b.Skip("bench graph produced no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: 1, Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAngleTableResetAndFill isolates the open-addressing table:
// one generation-bump reset plus a typical fill, the operation the seed
// implementation paid a map clear and rehash for.
func BenchmarkAngleTableResetAndFill(b *testing.B) {
	tab := newAngleTable(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.reset()
		for k := 0; k < 200; k++ {
			key := uint64(k)*2654435761 + 1
			if _, ok := tab.get(key); !ok {
				tab.put(key, int32(k))
			}
		}
	}
}
