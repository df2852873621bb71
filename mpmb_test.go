package mpmb

import (
	"math"
	"path/filepath"
	"testing"
)

// figure1 builds the paper's running example through the public API.
func figure1(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	return b.Build()
}

func TestPublicAPISearchAllMethods(t *testing.T) {
	g := figure1(t)
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	exactBest, _ := exact.Best()

	opt := DefaultOptions()
	opt.Trials = 30000
	for _, m := range []Method{MethodMCVP, MethodOS, MethodOLSKL, MethodOLS} {
		opt.Method = m
		res, err := Search(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		best, ok := res.Best()
		if !ok {
			t.Fatalf("%s: no result", m)
		}
		if math.Abs(best.P-exactBest.P) > 0.02 {
			t.Errorf("%s: best P = %v (%v), exact %v (%v)", m, best.P, best.B, exactBest.P, exactBest.B)
		}
	}

	opt.Method = MethodExact
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := res.Best(); b != exactBest {
		t.Fatalf("Search(exact) best %+v != Exact best %+v", b, exactBest)
	}

	opt.Method = "bogus"
	if _, err := Search(g, opt); err == nil {
		t.Fatal("Search accepted an unknown method")
	}
}

func TestPublicAPIDefaultsToOLS(t *testing.T) {
	g := figure1(t)
	opt := DefaultOptions()
	opt.Method = ""
	opt.Trials = 5000
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "ols" {
		t.Fatalf("default method = %q, want ols", res.Method)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := figure1(t)
	cases := []Options{
		{Method: MethodOS, Trials: 0},
		{Method: MethodOS, Trials: -5},
		{Method: MethodOLS, Trials: 100, PrepTrials: 0},
		{Method: MethodOLS, Trials: 100, PrepTrials: -1},
		{Method: MethodOLSKL, Trials: 100, PrepTrials: 10, Mu: 1.5},
	}
	for _, opt := range cases {
		if _, err := Search(g, opt); err == nil {
			t.Errorf("Search accepted invalid options %+v", opt)
		}
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := figure1(t)
	path := filepath.Join(t.TempDir(), "g.graph")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumL() != g.NumL() || g2.NumR() != g.NumR() {
		t.Fatal("round trip changed the graph")
	}
}

func TestPublicAPIFromEdgesAndButterfly(t *testing.T) {
	g, err := FromEdges(2, 2, []Edge{
		{U: 0, V: 0, W: 1, P: 1},
		{U: 0, V: 1, W: 1, P: 1},
		{U: 1, V: 0, W: 1, P: 1},
		{U: 1, V: 1, W: 1, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewButterfly(1, 0, 1, 0) // canonicalizes
	p, err := ExactProb(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 {
		t.Fatalf("ExactProb = %v, want 0.5 (the single uncertain edge)", p)
	}
}

func TestPublicAPIRequiredTrials(t *testing.T) {
	n, err := RequiredTrials(0.05, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n < 20000 || n > 25000 {
		t.Fatalf("RequiredTrials = %d, want ≈ 2×10⁴", n)
	}
	if _, err := RequiredTrials(0, 0.1, 0.1); err == nil {
		t.Fatal("RequiredTrials accepted mu=0")
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	cfg := DatasetConfig{Seed: 1, Scale: 0.05}
	for _, name := range DatasetNames {
		d, err := GenerateDataset(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.G.NumEdges() == 0 {
			t.Fatalf("%s: empty dataset", name)
		}
		// Public-API smoke: OLS completes on every generated dataset.
		res, err := Search(d.G, Options{Method: MethodOLS, Trials: 50, PrepTrials: 10, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := res.Best(); !ok {
			t.Fatalf("%s: no butterfly found", name)
		}
	}
	if _, err := GenerateDataset("bogus", cfg); err == nil {
		t.Fatal("GenerateDataset accepted an unknown name")
	}
	if got := len(GenerateAllDatasets(cfg)); got != 4 {
		t.Fatalf("GenerateAllDatasets returned %d, want 4", got)
	}
}

func TestTopKExtension(t *testing.T) {
	g := figure1(t)
	res, err := Search(g, Options{Method: MethodOS, Trials: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	top2 := res.TopK(2)
	if len(top2) != 2 {
		t.Fatalf("TopK(2) returned %d", len(top2))
	}
	if top2[0].P < top2[1].P {
		t.Fatal("TopK not sorted")
	}
}

func TestCountingFacade(t *testing.T) {
	g := figure1(t)
	if got := CountButterflies(g); got != 3 {
		t.Fatalf("CountButterflies = %d, want 3", got)
	}
	// E[#B] = Σ_B Pr[E(B)] over the three Figure 1 butterflies.
	want := 0.5*0.6*0.3*0.4 + 0.5*0.8*0.3*0.7 + 0.6*0.8*0.4*0.7
	if got := ExpectedButterflies(g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpectedButterflies = %v, want %v", got, want)
	}
}

func TestSearchWorkersMatchSequential(t *testing.T) {
	g := figure1(t)
	opt := Options{Method: MethodOS, Trials: 4000, Seed: 5}
	seq, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	par, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Estimates) != len(par.Estimates) {
		t.Fatalf("parallel/sequential estimate counts differ: %d vs %d", len(par.Estimates), len(seq.Estimates))
	}
	for i := range seq.Estimates {
		if seq.Estimates[i] != par.Estimates[i] {
			t.Fatalf("estimate %d differs: %+v vs %+v", i, par.Estimates[i], seq.Estimates[i])
		}
	}
	if _, err := Search(g, Options{Method: MethodOS, Trials: 0, Workers: 2}); err == nil {
		t.Fatal("Search accepted Trials=0 with Workers")
	}
}

func TestThresholdFacade(t *testing.T) {
	g := figure1(t)
	all, err := ButterfliesWithProbAtLeast(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("threshold 0 returned %d, want 3", len(all))
	}
	some, err := ButterfliesWithProbAtLeast(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 1 || math.Abs(some[0].P-0.1344) > 1e-12 {
		t.Fatalf("threshold 0.1 = %v, want the single 0.1344 butterfly", some)
	}
	if _, err := ButterfliesWithProbAtLeast(g, 2); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
}

func TestConfidenceIntervalFacade(t *testing.T) {
	g := figure1(t)
	res, err := Search(g, Options{Method: MethodOS, Trials: 10000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	lo, hi, ok := res.ConfidenceInterval(best.B, 1.96)
	if !ok || lo > best.P || hi < best.P {
		t.Fatalf("interval [%v,%v] ok=%v around %v", lo, hi, ok, best.P)
	}
}
