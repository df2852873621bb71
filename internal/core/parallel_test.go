package core

import (
	"math/rand"
	"testing"
)

// TestOSParallelMatchesSequential: with per-trial derived streams, the
// parallel runner must produce bit-identical estimates to sequential OS
// for any worker count.
func TestOSParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		g := randDenseSmallGraph(r, 14)
		opt := OSOptions{Trials: 500, Seed: uint64(trial) + 9}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 7} {
			par, err := OSParallel(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Estimates) != len(seq.Estimates) {
				t.Fatalf("workers=%d: %d estimates vs %d sequential",
					workers, len(par.Estimates), len(seq.Estimates))
			}
			for i := range par.Estimates {
				if par.Estimates[i] != seq.Estimates[i] {
					t.Fatalf("workers=%d: estimate %d differs: %+v vs %+v",
						workers, i, par.Estimates[i], seq.Estimates[i])
				}
			}
		}
	}
}

func TestOSParallelValidation(t *testing.T) {
	g := figure1Graph()
	if _, err := OSParallel(g, OSOptions{Trials: 0}, 2); err == nil {
		t.Fatal("OSParallel accepted Trials=0")
	}
}

// TestEstimateOptimizedParallelMatchesSequential mirrors the OS check for
// the Algorithm 5 estimator, with and without each ablation: they run on
// any worker count.
func TestEstimateOptimizedParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 5; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() == 0 {
			continue
		}
		for _, opt := range []OptimizedOptions{
			{Trials: 1000, Seed: uint64(trial) + 17},
			{Trials: 1000, Seed: uint64(trial) + 17, EagerSampling: true},
			{Trials: 1000, Seed: uint64(trial) + 17, DisableEarlyBreak: true},
		} {
			seq, err := EstimateOptimized(cands, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 5} {
				popt := opt
				popt.Executor = &LocalExecutor{Workers: workers}
				par, err := EstimateOptimized(cands, popt)
				if err != nil {
					t.Fatal(err)
				}
				for i := range seq {
					if par[i] != seq[i] {
						t.Fatalf("%+v workers=%d cand %d: %v vs %v", opt, workers, i, par[i], seq[i])
					}
				}
			}
		}
	}
}

func TestEstimateOptimizedParallelValidation(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: 0, Executor: &LocalExecutor{Workers: 2}}); err == nil {
		t.Fatal("accepted Trials=0")
	}
}

// TestEstimateKarpLubyParallelMatchesSequential mirrors the other
// parallel-equivalence checks for the candidate-parallel Karp-Luby.
func TestEstimateKarpLubyParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 4; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() < 2 {
			continue
		}
		var seqUsed, parUsed []int
		opt := KLOptions{BaseTrials: 800, Seed: uint64(trial) + 29, Mu: 0.1, TrialsUsed: &seqUsed}
		seq, err := EstimateKarpLuby(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4} {
			popt := opt
			popt.TrialsUsed = &parUsed
			popt.Executor = &LocalExecutor{Workers: workers}
			par, err := EstimateKarpLuby(cands, popt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("workers=%d cand %d: %v vs %v", workers, i, par[i], seq[i])
				}
				if parUsed[i] != seqUsed[i] {
					t.Fatalf("workers=%d cand %d: trials %d vs %d", workers, i, parUsed[i], seqUsed[i])
				}
			}
		}
	}
}

func TestEstimateKarpLubyParallelValidation(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: 0, Executor: &LocalExecutor{Workers: 2}}); err == nil {
		t.Fatal("accepted BaseTrials=0")
	}
}
