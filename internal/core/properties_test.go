package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
)

// TestExactMassEqualsExpectedTieCount: Σ_B P(B) equals the expected size
// of the maximum butterfly set E[|S_MB|] over worlds — the tie-aware
// generalization of "probabilities sum to Pr[a butterfly exists]".
// Property-checked over random graphs.
func TestExactMassEqualsExpectedTieCount(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 4, 4, 12)
		res, err := Exact(g)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, e := range res.Estimates {
			sum += e.P
		}
		expectedTies := 0.0
		if err := possible.Enumerate(g, func(w *possible.World, pr float64) bool {
			m := butterfly.MaxWeightSet(g, w)
			expectedTies += pr * float64(len(m.Set))
			return true
		}); err != nil {
			return false
		}
		return math.Abs(sum-expectedTies) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestExactBoundedByExistence: P(B) ≤ Pr[E(B)] for every butterfly —
// being maximum requires existing.
func TestExactBoundedByExistence(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 4, 4, 12)
		res, err := Exact(g)
		if err != nil {
			return false
		}
		for _, e := range res.Estimates {
			pr, ok := e.B.ExistProb(g)
			if !ok {
				return false
			}
			if e.P > pr+1e-12 {
				return false
			}
			if e.P < 0 || e.P > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateWeightsAreCanonical: every weight reported by the samplers
// must equal the butterfly's canonical backbone weight.
func TestEstimateWeightsAreCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		g := randDenseSmallGraph(r, 14)
		for _, run := range []func() (*Result, error){
			func() (*Result, error) { return OS(g, OSOptions{Trials: 500, Seed: uint64(trial)}) },
			func() (*Result, error) { return MCVP(g, MCVPOptions{Trials: 500, Seed: uint64(trial)}) },
			func() (*Result, error) {
				return OLS(g, OLSOptions{PrepTrials: 50, Trials: 500, Seed: uint64(trial)})
			},
		} {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.Estimates {
				want, ok := e.B.Weight(g)
				if !ok {
					t.Fatalf("%s reported non-backbone butterfly %v", res.Method, e.B)
				}
				if e.Weight != want {
					t.Fatalf("%s weight %v != canonical %v for %v", res.Method, e.Weight, want, e.B)
				}
			}
		}
	}
}

// TestDeterministicGraphDegeneratesToMaxSearch: with every probability 1
// there is a single possible world; the heaviest butterflies get P = 1
// (split across ties as co-members of S_MB) and everything else gets 0.
func TestDeterministicGraphDegeneratesToMaxSearch(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		g := randGraph(r, 4, 4, 12)
		// Rebuild with all probabilities forced to 1.
		all := butterfly.AllBackbone(g)
		if len(all) == 0 {
			continue
		}
		bldr := certainCopy(g)
		exact, err := Exact(bldr)
		if err != nil {
			t.Fatal(err)
		}
		full := possible.NewWorld(bldr.NumEdges())
		for i := 0; i < bldr.NumEdges(); i++ {
			full.Set(uint32(i))
		}
		want := butterfly.MaxWeightSet(bldr, full)
		if len(exact.Estimates) != len(want.Set) {
			t.Fatalf("deterministic graph: %d estimates, want %d maxima", len(exact.Estimates), len(want.Set))
		}
		for _, e := range exact.Estimates {
			if e.P != 1 {
				t.Fatalf("deterministic graph: P(%v) = %v, want 1", e.B, e.P)
			}
		}
		// OS on the deterministic graph must agree in a single trial.
		res, err := OS(bldr, OSOptions{Trials: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Estimates) != len(want.Set) {
			t.Fatalf("OS on deterministic graph: %d estimates, want %d", len(res.Estimates), len(want.Set))
		}
	}
}

// TestKLOnlyCandidateMatchesFullRun: pricing one Karp-Luby candidate
// alone, as a one-unit job, returns exactly the same value as the full
// run does for that candidate (identical per-candidate streams).
func TestKLOnlyCandidateMatchesFullRun(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() < 2 {
			continue
		}
		opt := KLOptions{BaseTrials: 2000, Seed: uint64(trial) + 3}
		full, err := EstimateKarpLuby(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		idx := cands.Len() - 1 // the most constrained candidate
		job, err := opt.job(cands)
		if err != nil {
			t.Fatal(err)
		}
		job.Start, job.Units = idx, idx+1
		only, err := (&LocalExecutor{Workers: 1}).ExecuteTrials(job)
		if err != nil {
			t.Fatal(err)
		}
		if len(only.CandProbs) != 1 || only.CandProbs[0] != full[idx] {
			t.Fatalf("trial %d: one-unit job priced %v, full run %v", trial, only.CandProbs, full[idx])
		}
	}
}

// certainCopy rebuilds g with every edge probability set to 1.
func certainCopy(g *bigraph.Graph) *bigraph.Graph {
	b := bigraph.NewBuilder(g.NumL(), g.NumR())
	for _, e := range g.Edges() {
		b.MustAddEdge(e.U, e.V, e.W, 1)
	}
	return b.Build()
}
