package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// Cross-runner equivalence: a parallel runner is an implementation
// detail, so seed for seed its FULL Result — method tag, trial
// bookkeeping, partial flag and every estimate, bit for bit and in
// canonical order — must match the sequential runner's. The existing
// parallel tests compare estimate values; these pin the whole struct,
// and in particular workers=1 (a degenerate pool, historically the
// easiest configuration to special-case apart).

// requireSameResult asserts full Result identity.
func requireSameResult(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	if par.Method != seq.Method || par.Trials != seq.Trials ||
		par.PrepTrials != seq.PrepTrials || par.TrialsDone != seq.TrialsDone ||
		par.Partial != seq.Partial {
		t.Fatalf("%s: result headers differ:\nseq: %+v\npar: %+v", label, headerOf(seq), headerOf(par))
	}
	if !reflect.DeepEqual(par.Estimates, seq.Estimates) {
		t.Fatalf("%s: estimates differ:\nseq: %v\npar: %v", label, seq.Estimates, par.Estimates)
	}
}

// topClassPriced returns the oracle's Result ref with the heaviest weight
// class of the run's candidate set cands priced as the optimized estimator
// prices it: every estimate of that class at its exact Pr[E(B)], the list
// re-sorted canonically. Every other estimate is the oracle's, so
// requireSameResult still compares each estimate bit for bit.
func topClassPriced(ref *Result, cands *Candidates) *Result {
	exist := make(map[butterfly.Butterfly]float64, cands.top)
	for _, c := range cands.List[:cands.top] {
		exist[c.B] = c.ExistProb
	}
	out := *ref
	out.Estimates = slices.Clone(ref.Estimates)
	for i, e := range out.Estimates {
		if p, ok := exist[e.B]; ok {
			out.Estimates[i].P = p
		}
	}
	sortEstimates(out.Estimates)
	return &out
}

func headerOf(r *Result) map[string]any {
	return map[string]any{
		"Method": r.Method, "Trials": r.Trials, "PrepTrials": r.PrepTrials,
		"TrialsDone": r.TrialsDone, "Partial": r.Partial,
	}
}

func TestOSParallelFullResultEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 6, 6, 16)
		opt := OSOptions{Trials: 600, Seed: uint64(trial)*13 + 7}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			par, err := OSParallel(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os", seq, par)
		}
	}
}

func TestOLSParallelFullResultEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		g := randGraph(r, 6, 6, 16)
		for _, useKL := range []bool{false, true} {
			opt := OLSOptions{
				PrepTrials:  40,
				Trials:      400,
				Seed:        uint64(trial)*17 + 3,
				UseKarpLuby: useKL,
			}
			seq, err := OLS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				par, err := OLS(g, pooled(opt, workers))
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, seq.Method, seq, par)
			}
		}
	}
}

// Kernel-vs-seed equivalence: the flat-memory trial kernel (SoA edge
// snapshot, threshold Bernoulli, open-addressed angle tables, batched
// chunk dispatch) is a pure optimization, so seed for seed its FULL
// Result must be bit-identical to the frozen seed implementation in
// osref.go — sequentially, under the degenerate workers=1 pool, and
// under a contended workers=8 pool.

func TestKernelMatchesSeedOS(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		g := randGraph(r, 7, 7, 20)
		opt := OSOptions{Trials: 500, Seed: uint64(trial)*29 + 5}
		ref, err := OSReference(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "os kernel vs seed (sequential)", ref, seq)
		for _, workers := range []int{1, 8} {
			par, err := OSParallel(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os kernel vs seed (parallel)", ref, par)
		}
	}
}

func TestKernelMatchesSeedOSAblations(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 6, 6, 18)
		for _, opt := range []OSOptions{
			{Trials: 300, Seed: uint64(trial) + 1, DisableEdgePrune: true},
			{Trials: 300, Seed: uint64(trial) + 1, DropA2: true},
			{Trials: 300, Seed: uint64(trial) + 1, KeepAllAngles: true},
		} {
			ref, err := OSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := OS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os ablation kernel vs seed", ref, seq)
		}
	}
}

func TestKernelMatchesSeedOLS(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 6, 6, 18)
		for _, useKL := range []bool{false, true} {
			opt := OLSOptions{
				PrepTrials:  30,
				Trials:      300,
				Seed:        uint64(trial)*19 + 2,
				UseKarpLuby: useKL,
			}
			ref, err := OLSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !useKL {
				cands, err := PrepareCandidates(g, opt.PrepTrials, opt.Seed, opt.OS)
				if err != nil {
					t.Fatal(err)
				}
				ref = topClassPriced(ref, cands)
			}
			seq, err := OLS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, ref.Method+" kernel vs seed (sequential)", ref, seq)
			for _, workers := range []int{1, 8} {
				par, err := OLS(g, pooled(opt, workers))
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, ref.Method+" kernel vs seed (parallel)", ref, par)
			}
		}
	}
}

// TestKernelMatchesSeedAfterResume cuts a kernel run mid-flight, resumes
// it from the checkpoint, and requires the stitched Result to remain
// bit-identical to the seed implementation's uninterrupted run — the
// strongest form of the completed-prefix invariant surviving the batched
// chunk dispatch.
func TestKernelMatchesSeedAfterResume(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	g := randGraph(r, 7, 7, 20)

	t.Run("os", func(t *testing.T) {
		opt := OSOptions{Trials: 400, Seed: 9}
		ref, err := OSReference(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the parallel run after ~the first few chunks; the interrupt
		// is polled concurrently, so count atomically.
		var polls atomic.Int64
		cut := opt
		cut.Interrupt = func() bool { return polls.Add(1) > 6 }
		part, err := OSParallel(g, cut, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.Checkpoint == nil {
			t.Skip("interrupt did not cut the run mid-flight on this machine")
		}
		res := opt
		res.Resume = part.Checkpoint
		for label, finish := range map[string]func() (*Result, error){
			"sequential": func() (*Result, error) { return OS(g, res) },
			"parallel":   func() (*Result, error) { return OSParallel(g, res, 4) },
		} {
			got, err := finish()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os resume "+label, ref, got)
		}
	})

	for _, useKL := range []bool{false, true} {
		opt := OLSOptions{PrepTrials: 30, Trials: 300, Seed: 9, UseKarpLuby: useKL}
		t.Run(opt.method(), func(t *testing.T) {
			ref, err := OLSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Estimates) == 0 {
				t.Skip("graph produced no candidates")
			}
			if !useKL {
				cands, err := PrepareCandidates(g, opt.PrepTrials, opt.Seed, opt.OS)
				if err != nil {
					t.Fatal(err)
				}
				ref = topClassPriced(ref, cands)
			}
			// Let the preparing phase through, cut the sampling phase.
			var polls atomic.Int64
			cut := opt
			cut.Interrupt = func() bool { return polls.Add(1) > int64(opt.PrepTrials)+4 }
			part, err := OLS(g, pooled(cut, 4))
			if err != nil {
				t.Fatal(err)
			}
			if !part.Partial || part.Checkpoint == nil {
				t.Skip("interrupt did not cut the sampling phase mid-flight")
			}
			res := opt
			res.Resume = part.Checkpoint
			for label, finish := range map[string]func() (*Result, error){
				"sequential": func() (*Result, error) { return OLS(g, res) },
				"parallel":   func() (*Result, error) { return OLS(g, pooled(res, 4)) },
			} {
				got, err := finish()
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, opt.method()+" resume "+label, ref, got)
			}
		})
	}
}

// TestOptimizedTopClassMatchesKarpLuby pins the closed-form pricing of the
// heaviest weight class over every backbone butterfly: on 1 and 4
// workers, each estimate of that class is bit-identical to Karp-Luby's,
// which prices L(i) = 0 exactly, and each lighter estimate to a
// DisableEarlyBreak run's, whose trials scan the whole heaviest class.
// The graphs are complete 4×4 graphs weighted from {1, 1.5}, so their 36
// butterflies fall into a few weight classes and the heaviest often holds
// several.
func TestOptimizedTopClassMatchesKarpLuby(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	tied := 0
	for trial := 0; trial < 8; trial++ {
		b := bigraph.NewBuilder(4, 4)
		for u := 0; u < 4; u++ {
			for v := 0; v < 4; v++ {
				b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), halfGrid[1+r.Intn(2)], probGrid[r.Intn(len(probGrid))])
			}
		}
		cands, err := AllBackboneCandidates(b.Build())
		if err != nil {
			t.Fatal(err)
		}
		top := cands.top
		if top > 1 {
			tied++
		}
		seed := uint64(trial)*43 + 7
		kl, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		full, err := EstimateOptimized(cands, OptimizedOptions{Trials: 400, Seed: seed, DisableEarlyBreak: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := EstimateOptimized(cands, OptimizedOptions{Trials: 400, Seed: seed, Executor: &LocalExecutor{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[:top], kl[:top]) {
				t.Fatalf("graph %d, %d workers: heaviest class %v, Karp-Luby %v", trial, workers, got[:top], kl[:top])
			}
			if !reflect.DeepEqual(got[top:], full[top:]) {
				t.Fatalf("graph %d, %d workers: lighter classes %v, DisableEarlyBreak %v", trial, workers, got[top:], full[top:])
			}
		}
	}
	if tied == 0 {
		t.Fatal("no graph has a heaviest class of two or more candidates")
	}
}

// TestEstimateKarpLubyParallelSingleWorker covers the workers=1 pool the
// broader KL equivalence test skips.
func TestEstimateKarpLubyParallelSingleWorker(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 3; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() == 0 {
			continue
		}
		opt := KLOptions{BaseTrials: 500, Seed: uint64(trial) + 11}
		seq, err := EstimateKarpLuby(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		popt := opt
		popt.Executor = &LocalExecutor{Workers: 1}
		par, err := EstimateKarpLuby(cands, popt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("workers=1 KL estimates differ:\nseq: %v\npar: %v", seq, par)
		}
	}
}

// TestOneWorkerExecutorMatchesSeed is the explicit LocalExecutor{Workers:
// 1} column of the kernel-vs-seed tables: a run handed a one-worker
// executor must reproduce the frozen seed implementation bit for bit.
func TestOneWorkerExecutorMatchesSeed(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 7, 7, 20)
		opt := OSOptions{Trials: 400, Seed: uint64(trial)*31 + 3}
		ref, err := OSReference(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		one := opt
		one.Executor = &LocalExecutor{Workers: 1}
		got, err := OS(g, one)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "os one-worker executor vs seed", ref, got)
		for _, useKL := range []bool{false, true} {
			olsOpt := OLSOptions{PrepTrials: 30, Trials: 300, Seed: uint64(trial)*37 + 1, UseKarpLuby: useKL}
			ref, err := OLSReference(g, olsOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !useKL {
				cands, err := PrepareCandidates(g, olsOpt.PrepTrials, olsOpt.Seed, olsOpt.OS)
				if err != nil {
					t.Fatal(err)
				}
				ref = topClassPriced(ref, cands)
			}
			got, err := OLS(g, pooled(olsOpt, 1))
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, ref.Method+" one-worker executor vs seed", ref, got)
		}
	}
}

// TestAnchoredOSFullResultEquivalence adds anchored OS to the table: for
// every anchor of every kind, AnchoredOS and AnchoredOSParallel at
// workers {1, 2, 3, 4} return the same full Result.
func TestAnchoredOSFullResultEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 3; trial++ {
		g := randGraph(r, 6, 6, 16)
		for _, a := range allAnchors(g) {
			opt := OSOptions{Trials: 300, Seed: uint64(trial)*41 + 5}
			seq, err := AnchoredOS(g, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4} {
				par, err := AnchoredOSParallel(g, a, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "anchored os "+a.String(), seq, par)
			}
		}
	}
}
