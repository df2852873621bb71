package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

func sortedSet(bs []butterfly.Butterfly) []butterfly.Butterfly {
	out := append([]butterfly.Butterfly(nil), bs...)
	sort.Slice(out, func(i, j int) bool { return lessButterfly(out[i], out[j]) })
	return out
}

func sameMaxSet(t *testing.T, got, want butterfly.MaxSet, context string) {
	t.Helper()
	if got.Empty() != want.Empty() {
		t.Fatalf("%s: emptiness mismatch: got %v want %v", context, got.Empty(), want.Empty())
	}
	if got.Empty() {
		return
	}
	if got.W != want.W {
		t.Fatalf("%s: max weight %v, want %v", context, got.W, want.W)
	}
	g, w := sortedSet(got.Set), sortedSet(want.Set)
	if len(g) != len(w) {
		t.Fatalf("%s: |S_MB| = %d, want %d\n got: %v\nwant: %v", context, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: S_MB[%d] = %v, want %v", context, i, g[i], w[i])
		}
	}
}

// TestOSOnWorldMatchesBruteForce is the central determinism check for
// Ordering Sampling: on any concrete possible world, the per-trial search
// of Algorithm 2 (edge ordering + angle ordering + fast butterfly
// creation) must return exactly the brute-force maximum weighted
// butterfly set S_MB. Exercised across random graphs and random worlds
// with testing/quick.
func TestOSOnWorldMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 5, 5, 18)
		rng := randx.New(uint64(seed) * 2654435761)
		w := possible.Sample(g, rng)
		want := butterfly.MaxWeightSet(g, w)
		got := OSOnWorld(g, w, OSOptions{})
		if got.Empty() != want.Empty() {
			return false
		}
		if got.Empty() {
			return true
		}
		if got.W != want.W || len(got.Set) != len(want.Set) {
			return false
		}
		a, b := sortedSet(got.Set), sortedSet(want.Set)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOSOnWorldAblationsAgree verifies that disabling the edge prune or
// keeping all angles — both pure performance optimizations — never
// changes the per-world result.
func TestOSOnWorldAblationsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g := randGraph(r, 5, 5, 20)
		rng := randx.New(uint64(trial + 1))
		w := possible.Sample(g, rng)
		base := OSOnWorld(g, w, OSOptions{})
		noPrune := OSOnWorld(g, w, OSOptions{DisableEdgePrune: true})
		allAngles := OSOnWorld(g, w, OSOptions{KeepAllAngles: true})
		sameMaxSet(t, noPrune, base, "DisableEdgePrune")
		sameMaxSet(t, allAngles, base, "KeepAllAngles")
	}
}

// TestVPEnumerationMatchesReference checks that the vertex-priority
// enumerator lists exactly the same butterflies (with identical weights)
// as the common-neighbour reference on random worlds.
func TestVPEnumerationMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		g := randGraph(r, 6, 6, 24)
		order := g.PriorityOrder()
		rng := randx.New(uint64(trial + 101))
		w := possible.Sample(g, rng)

		ref := make(map[butterfly.Butterfly]float64)
		butterfly.ForEachInWorld(g, w, func(b butterfly.Butterfly, wt float64) bool {
			if _, dup := ref[b]; dup {
				t.Fatalf("reference enumerator duplicated %v", b)
			}
			ref[b] = wt
			return true
		})
		vp := make(map[butterfly.Butterfly]float64)
		butterfly.ForEachInWorldVP(g, w, order, func(b butterfly.Butterfly, wt float64) bool {
			if _, dup := vp[b]; dup {
				t.Fatalf("VP enumerator duplicated %v", b)
			}
			vp[b] = wt
			return true
		})
		if len(ref) != len(vp) {
			t.Fatalf("trial %d: reference found %d butterflies, VP found %d", trial, len(ref), len(vp))
		}
		for b, wt := range ref {
			if vp[b] != wt {
				t.Fatalf("trial %d: %v weight mismatch: ref %v vp %v", trial, b, wt, vp[b])
			}
		}
	}
}

// TestOSEstimateConvergesToExact runs OS with enough trials on the Figure
// 1 example and compares every estimate against the exact solver within
// the Hoeffding acceptance half-width (an unreported butterfly is an
// estimate of 0, held to the same band).
func TestOSEstimateConvergesToExact(t *testing.T) {
	g := figure1Graph()
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 60000
	tol := statTol(trials)
	res, err := OS(g, OSOptions{Trials: trials, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range exact.Estimates {
		got, ok := res.Lookup(want.B)
		if !ok {
			if want.P > tol {
				t.Fatalf("OS never reported %v (exact P=%v)", want.B, want.P)
			}
			continue
		}
		if math.Abs(got.P-want.P) > tol {
			t.Errorf("OS P(%v) = %v, exact %v (tol %v)", want.B, got.P, want.P, tol)
		}
	}
}

// TestMCVPEstimateConvergesToExact mirrors the OS convergence test for
// the baseline.
func TestMCVPEstimateConvergesToExact(t *testing.T) {
	g := figure1Graph()
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 60000
	tol := statTol(trials)
	res, err := MCVP(g, MCVPOptions{Trials: trials, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range exact.Estimates {
		got, ok := res.Lookup(want.B)
		if !ok {
			if want.P > tol {
				t.Fatalf("MC-VP never reported %v (exact P=%v)", want.B, want.P)
			}
			continue
		}
		if math.Abs(got.P-want.P) > tol {
			t.Errorf("MC-VP P(%v) = %v, exact %v (tol %v)", want.B, got.P, want.P, tol)
		}
	}
}

// TestOSAgreesWithMCVPOnRandomGraphs compares the two samplers'
// estimates head-to-head on random exactly-enumerable graphs: both
// approximate the same exact distribution.
func TestOSAgreesWithMCVPOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison is slow")
	}
	r := rand.New(rand.NewSource(23))
	const trials = 40000
	tol := statTol(trials)
	for trial := 0; trial < 5; trial++ {
		g := randDenseSmallGraph(r, 12)
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		osRes, err := OS(g, OSOptions{Trials: trials, Seed: uint64(trial)*7 + 1})
		if err != nil {
			t.Fatal(err)
		}
		mcRes, err := MCVP(g, MCVPOptions{Trials: trials, Seed: uint64(trial)*7 + 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range exact.Estimates {
			if want.P < tol {
				continue // inside the acceptance band of an unreported butterfly
			}
			for _, res := range []*Result{osRes, mcRes} {
				got, ok := res.Lookup(want.B)
				if !ok {
					t.Fatalf("trial %d: %s missed %v with exact P=%v", trial, res.Method, want.B, want.P)
				}
				if math.Abs(got.P-want.P) > tol {
					t.Errorf("trial %d: %s P(%v)=%v, exact %v (tol %v)", trial, res.Method, got.P, want.P, want.P, tol)
				}
			}
		}
	}
}

// TestOSRejectsBadOptions covers option validation.
func TestOSRejectsBadOptions(t *testing.T) {
	g := figure1Graph()
	if _, err := OS(g, OSOptions{Trials: 0}); err == nil {
		t.Fatal("OS accepted Trials=0")
	}
	if _, err := MCVP(g, MCVPOptions{Trials: -1}); err == nil {
		t.Fatal("MCVP accepted Trials=-1")
	}
}

// TestOSDeterministicGivenSeed ensures two runs with the same seed give
// identical results, and different seeds (almost surely) differ in
// per-butterfly counts on a graph with randomness.
func TestOSDeterministicGivenSeed(t *testing.T) {
	g := figure1Graph()
	a, err := OS(g, OSOptions{Trials: 2000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OS(g, OSOptions{Trials: 2000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Estimates) != len(b.Estimates) {
		t.Fatalf("same seed, different estimate counts: %d vs %d", len(a.Estimates), len(b.Estimates))
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatalf("same seed, different estimate %d: %+v vs %+v", i, a.Estimates[i], b.Estimates[i])
		}
	}
}

// TestOSEmptyGraph exercises a graph with vertices but no edges.
func TestOSEmptyGraph(t *testing.T) {
	g := bigraph.NewBuilder(3, 3).Build()
	res, err := OS(g, OSOptions{Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 0 {
		t.Fatalf("empty graph produced estimates: %+v", res.Estimates)
	}
}
