package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// TestPrepareCandidatesFindsAllLikelyButterflies checks Lemma VI.1
// empirically: with 100 preparing trials, every butterfly whose exact
// probability is noticeable must land in C_MB.
func TestPrepareCandidatesFindsAllLikelyButterflies(t *testing.T) {
	g := figure1Graph()
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := PrepareCandidates(g, 100, 7, OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inCands := make(map[butterfly.Butterfly]bool)
	for _, c := range cands.List {
		inCands[c.B] = true
	}
	for _, e := range exact.Estimates {
		if e.P > 0.1 && !inCands[e.B] {
			t.Errorf("butterfly %v with exact P=%v missing from C_MB", e.B, e.P)
		}
	}
}

// TestCandidatesOrderingAndLargerCount validates the weight-descending
// invariant and the L(i) computation, including tie groups.
func TestCandidatesOrderingAndLargerCount(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if cands.Len() != 3 {
		t.Fatalf("|C_MB| = %d, want 3", cands.Len())
	}
	for i := 1; i < cands.Len(); i++ {
		if cands.List[i].Weight > cands.List[i-1].Weight {
			t.Fatalf("candidates not weight-sorted at %d", i)
		}
	}
	// Figure 1 weights: 10, 7, 7.
	if cands.List[0].Weight != 10 || cands.List[1].Weight != 7 || cands.List[2].Weight != 7 {
		t.Fatalf("weights = %v,%v,%v; want 10,7,7",
			cands.List[0].Weight, cands.List[1].Weight, cands.List[2].Weight)
	}
	if got := cands.LargerCount(0); got != 0 {
		t.Fatalf("L(0) = %d, want 0", got)
	}
	if got := cands.LargerCount(1); got != 1 {
		t.Fatalf("L(1) = %d, want 1 (only the weight-10 butterfly)", got)
	}
	if got := cands.LargerCount(2); got != 1 {
		t.Fatalf("L(2) = %d, want 1 (tie group shares L)", got)
	}
}

// TestDiffEdgesAndProb checks B_j \ B_i arithmetic on the Figure 1
// example, where every butterfly pair shares exactly two edges.
func TestDiffEdgesAndProb(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 0 is B(u1,u2|v1,v2) (weight 10); candidate 1 and 2 are
	// the weight-7 butterflies. Each shares two edges with candidate 0,
	// so each diff has two edges.
	for i := 1; i < 3; i++ {
		d := cands.DiffEdges(0, i)
		if len(d) != 2 {
			t.Fatalf("|B_0\\B_%d| = %d, want 2", i, len(d))
		}
		p := cands.DiffProb(0, i)
		want := 1.0
		for _, id := range d {
			want *= g.Edge(id).P
		}
		if math.Abs(p-want) > 1e-15 {
			t.Fatalf("DiffProb(0,%d) = %v, want %v", i, p, want)
		}
	}
	// Self-diff is empty with probability 1.
	if d := cands.DiffEdges(1, 1); len(d) != 0 {
		t.Fatalf("self diff has %d edges, want 0", len(d))
	}
	if p := cands.DiffProb(1, 1); p != 1 {
		t.Fatalf("self DiffProb = %v, want 1", p)
	}
}

// TestSIMatchesDefinition verifies S_i = Σ_{j<L(i)} Pr[E(B_j\B_i)].
func TestSIMatchesDefinition(t *testing.T) {
	g := figure1Graph()
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if s := cands.SI(0); s != 0 {
		t.Fatalf("S_0 = %v, want 0 (heaviest candidate)", s)
	}
	for i := 1; i < 3; i++ {
		want := cands.DiffProb(0, i)
		if s := cands.SI(i); math.Abs(s-want) > 1e-15 {
			t.Fatalf("S_%d = %v, want %v", i, s, want)
		}
	}
}

// TestOptimizedEstimatorMatchesExact gives the optimized estimator the
// complete backbone candidate set of small random graphs and requires
// statistical agreement with the exact solver. With the full candidate
// set there is no Lemma VI.5 bias, so the estimator must be unbiased.
func TestOptimizedEstimatorMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		g := randDenseSmallGraph(r, 12)
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 40000
		probs, err := EstimateOptimized(cands, OptimizedOptions{Trials: trials, Seed: uint64(trial) + 1})
		if err != nil {
			t.Fatal(err)
		}
		// The optimized estimator's per-candidate count is binomial, so
		// the plain Hoeffding half-width is the acceptance band.
		tol := statTol(trials)
		for i, c := range cands.List {
			want := 0.0
			if e, ok := exact.Lookup(c.B); ok {
				want = e.P
			}
			if math.Abs(probs[i]-want) > tol {
				t.Errorf("trial %d: optimized P(%v) = %v, exact %v (tol %v)", trial, c.B, probs[i], want, tol)
			}
		}
	}
}

// TestKarpLubyEstimatorMatchesExact is the same unbiasedness check for
// Algorithm 4 with fixed per-candidate trials.
func TestKarpLubyEstimatorMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 6; trial++ {
		g := randDenseSmallGraph(r, 12)
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		const trials = 40000
		probs, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: trials, Seed: uint64(trial) + 1})
		if err != nil {
			t.Fatal(err)
		}
		// Karp-Luby's estimate is an affine transform of a binomial
		// proportion with scale Pr[E(B_i)]·S_i, so its acceptance band is
		// the scaled Hoeffding half-width per candidate.
		for i, c := range cands.List {
			want := 0.0
			if e, ok := exact.Lookup(c.B); ok {
				want = e.P
			}
			tol := statTolScaled(c.ExistProb*cands.SI(i), trials)
			if math.Abs(probs[i]-want) > tol {
				t.Errorf("trial %d: karp-luby P(%v) = %v, exact %v (tol %v)", trial, c.B, probs[i], want, tol)
			}
		}
	}
}

// TestOptimizedAblationsUnbiased checks the eager-sampling and
// no-early-break ablations still estimate the same quantities.
func TestOptimizedAblationsUnbiased(t *testing.T) {
	g := figure1Graph()
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 40000
	tol := statTol(trials)
	for _, opt := range []OptimizedOptions{
		{Trials: trials, Seed: 5, EagerSampling: true},
		{Trials: trials, Seed: 6, DisableEarlyBreak: true},
	} {
		probs, err := EstimateOptimized(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cands.List {
			want := 0.0
			if e, ok := exact.Lookup(c.B); ok {
				want = e.P
			}
			if math.Abs(probs[i]-want) > tol {
				t.Errorf("opt %+v: P(%v) = %v, exact %v (tol %v)", opt, c.B, probs[i], want, tol)
			}
		}
	}
}

// TestOLSEndToEnd runs the full Algorithm 3 on the running example and
// validates the top result and trial accounting.
func TestOLSEndToEnd(t *testing.T) {
	g := figure1Graph()
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, useKL := range []bool{false, true} {
		const trials = 40000
		opt := OLSOptions{PrepTrials: 100, Trials: trials, Seed: 12, UseKarpLuby: useKL}
		res, err := OLS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantMethod := "ols"
		if useKL {
			wantMethod = "ols-kl"
		}
		if res.Method != wantMethod {
			t.Fatalf("method = %q, want %q", res.Method, wantMethod)
		}
		if res.PrepTrials != 100 {
			t.Fatalf("PrepTrials = %d, want 100", res.PrepTrials)
		}
		best, ok := res.Best()
		if !ok {
			t.Fatal("OLS found nothing on the running example")
		}
		exactBest, _ := exact.Best()
		if math.Abs(best.P-exactBest.P) > statTol(trials) {
			t.Errorf("useKL=%v: best P = %v (%v), exact best %v (%v)",
				useKL, best.P, best.B, exactBest.P, exactBest.B)
		}
	}
}

// TestOLSAndKLAgreeOnRandomGraphs is the three-way integration check:
// both full Algorithm 3 variants must agree with the candidate-exact
// closed form for every candidate the preparing phase lists. Rebuilding
// the candidate set with PrepareCandidates at OLS's seed reproduces the
// set OLS uses internally, so ExactCandidateProbs is the truncation-aware
// oracle and the comparison needs no Lemma VI.5 slack — only the
// per-method Hoeffding band.
func TestOLSAndKLAgreeOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison is slow")
	}
	r := rand.New(rand.NewSource(41))
	const trials = 40000
	for trial := 0; trial < 4; trial++ {
		g := randDenseSmallGraph(r, 12)
		seed := uint64(trial)*13 + 5
		cands, err := PrepareCandidates(g, 200, seed, OSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() == 0 {
			continue
		}
		oracle, err := ExactCandidateProbs(cands)
		if err != nil {
			t.Fatal(err)
		}
		for _, useKL := range []bool{false, true} {
			res, err := OLS(g, OLSOptions{PrepTrials: 200, Trials: trials, Seed: seed, UseKarpLuby: useKL})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cands.List {
				got := 0.0
				if e, ok := res.Lookup(c.B); ok {
					got = e.P
				}
				tol := statTol(trials)
				if useKL {
					tol = statTolScaled(c.ExistProb*cands.SI(i), trials)
				}
				if math.Abs(got-oracle[i]) > tol {
					t.Errorf("trial %d useKL=%v: P(%v)=%v, candidate-exact %v (tol %v)",
						trial, useKL, c.B, got, oracle[i], tol)
				}
			}
		}
	}
}

// TestOLSNoButterflies covers the empty-candidate path: a path-shaped
// graph cannot contain a butterfly, so OLS must return an empty result
// without error.
func TestOLSNoButterflies(t *testing.T) {
	b := bigraph.NewBuilder(2, 2)
	b.MustAddEdge(0, 0, 1, 0.9)
	b.MustAddEdge(0, 1, 2, 0.9)
	b.MustAddEdge(1, 1, 3, 0.9)
	res, err := OLS(b.Build(), OLSOptions{PrepTrials: 20, Trials: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 0 {
		t.Fatalf("expected empty result, got %+v", res.Estimates)
	}
}

// TestOLSLeaderGaugeMatchesTopClassLeader pins the terminal leader gauge
// of an ols run led by a member of the heaviest weight class: the gauge
// reads the Result's P, that member's closed-form Pr[E(B)], not a count
// over the trials.
func TestOLSLeaderGaugeMatchesTopClassLeader(t *testing.T) {
	g := tiesGraph()
	reg := telemetry.NewRegistry()
	opt := OLSOptions{PrepTrials: 20, Trials: 150, Seed: 9, Probe: &telemetry.Probe{Reg: reg, Method: "ols"}}
	res, err := OLS(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := PrepareCandidates(g, opt.PrepTrials, opt.Seed, OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lead, top := res.Estimates[0], cands.List[0]
	if lead.B != top.B || lead.P != top.ExistProb {
		t.Fatalf("leader %+v, want %v at its Pr[E(B)] %v", lead, top.B, top.ExistProb)
	}
	if m := reg.Snapshot(); m.LeaderP != lead.P {
		t.Fatalf("leader gauge %v, Result leader P %v", m.LeaderP, lead.P)
	}
}
