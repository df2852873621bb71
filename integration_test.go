package mpmb

// Cross-method integration tests over the synthetic datasets: the four
// samplers approximate the same distribution, so their headline answers
// must agree — the MPMB itself, the composition of the top-k sets, and
// the estimated probabilities of shared butterflies. These run at reduced
// scale with fixed seeds (deterministic, no flakes) and generous
// statistical tolerances.

import (
	"math"
	"testing"
)

// datasetCase configures one dataset for the integration sweep: scale
// keeps runtime in check, trials give the estimates enough resolution.
var integrationCases = []struct {
	name   string
	scale  float64
	trials int
}{
	{"abide", 0.4, 3000},
	{"movielens", 0.1, 2000},
	{"jester", 0.1, 2000},
	{"protein", 0.2, 2000},
}

func TestCrossMethodTopKConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is slow")
	}
	for _, tc := range integrationCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, err := GenerateDataset(tc.name, DatasetConfig{Seed: 5, Scale: tc.scale})
			if err != nil {
				t.Fatal(err)
			}
			g := d.G
			opt := Options{Trials: tc.trials, PrepTrials: 150, Seed: 9, Mu: 0.05}

			opt.Method = MethodOS
			osRes, err := Search(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Method = MethodOLS
			olsRes, err := Search(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Method = MethodOLSKL
			klRes, err := Search(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			osBest, ok := osRes.Best()
			if !ok {
				t.Fatal("OS found nothing")
			}

			// The OS MPMB must appear near the top of both OLS variants
			// with a comparable probability estimate.
			for _, res := range []*Result{olsRes, klRes} {
				est, found := res.Lookup(osBest.B)
				if !found {
					t.Fatalf("%s: OS MPMB %v missing entirely", res.Method, osBest.B)
				}
				// Allow absolute slack for sampling noise plus modest
				// Lemma VI.5 upward bias on the OLS side.
				if est.P < osBest.P-0.1 || est.P > osBest.P+0.15 {
					t.Errorf("%s: P(%v)=%.3f, OS says %.3f", res.Method, osBest.B, est.P, osBest.P)
				}
			}

			// Per-butterfly agreement on the heads of both rankings.
			// Set identity of top-k lists is NOT required: rating
			// datasets contain hundreds of butterflies tied at the
			// maximum weight with near-identical P, where rank order
			// among equals is arbitrary. What must agree is the
			// probability each method assigns to the same butterfly.
			for _, e := range osRes.TopK(5) {
				got, found := olsRes.Lookup(e.B)
				if !found {
					if e.P > 0.2 {
						t.Errorf("OLS misses OS top butterfly %v with P=%.3f", e.B, e.P)
					}
					continue
				}
				if math.Abs(got.P-e.P) > 0.12 {
					t.Errorf("P(%v): OLS %.3f vs OS %.3f", e.B, got.P, e.P)
				}
			}
			for _, e := range olsRes.TopK(5) {
				got, found := osRes.Lookup(e.B)
				if !found {
					if e.P > 0.2 {
						t.Errorf("OS never saw OLS top butterfly %v with P̂=%.3f", e.B, e.P)
					}
					continue
				}
				if math.Abs(got.P-e.P) > 0.12 {
					t.Errorf("P(%v): OS %.3f vs OLS %.3f", e.B, got.P, e.P)
				}
			}
		})
	}
}

// TestProbabilityMassSanity: on every dataset, estimates lie in [0,1] and
// each butterfly's estimated probability never exceeds its existence
// probability by more than sampling noise.
func TestProbabilityMassSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is slow")
	}
	for _, tc := range integrationCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, err := GenerateDataset(tc.name, DatasetConfig{Seed: 5, Scale: tc.scale})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Search(d.G, Options{Method: MethodOLS, Trials: tc.trials, PrepTrials: 100, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.Estimates {
				if e.P < 0 || e.P > 1 {
					t.Fatalf("P(%v) = %v out of range", e.B, e.P)
				}
				pr, ok := e.B.ExistProb(d.G)
				if !ok {
					t.Fatalf("estimate for non-backbone butterfly %v", e.B)
				}
				if e.P > pr+4*math.Sqrt(pr*(1-pr)/float64(tc.trials))+0.02 {
					t.Errorf("P(%v)=%.4f exceeds existence %.4f beyond noise", e.B, e.P, pr)
				}
			}
		})
	}
}

// TestCountingConsistencyAcrossDatasets: the closed-form expected count
// matches the PMF estimate within tolerance on the scaled datasets.
func TestCountingConsistencyAcrossDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is slow")
	}
	for _, name := range []string{"abide"} {
		d, err := GenerateDataset(name, DatasetConfig{Seed: 5, Scale: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		exact := ExpectedButterflies(d.G)
		pmf, err := ButterflyCountPMF(d.G, 2000, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pmf.Mean()-exact) > 0.05*exact+1 {
			t.Fatalf("%s: PMF mean %v vs exact %v", name, pmf.Mean(), exact)
		}
	}
}
