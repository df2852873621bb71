package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// The flat kernel's contract is that a steady-state trial allocates
// nothing: all per-trial state (live-edge regions, angle table, entry
// pool, derived RNG, max set) is preallocated or amortized during warm-up
// and reused afterwards. These tests are the regression gate for that
// contract — a stray closure, map, or append in the hot path fails them
// immediately.

// TestOSTrialZeroAllocs warms the kernel over a fixed trial window (so
// the entry pool, max set, and angle table reach their high-water marks)
// and then requires exactly zero allocations per trial over the same
// window.
func TestOSTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := randGraph(r, 10, 10, 40)
	idx := newOSIndex(g, OSOptions{})
	root := randx.New(123)
	var sMB butterfly.MaxSet

	const window = 256
	for trial := 1; trial <= window; trial++ {
		idx.runTrialSeeded(root, uint64(trial), &sMB)
	}

	trial := 0
	allocs := testing.AllocsPerRun(2*window, func() {
		trial = trial%window + 1
		idx.runTrialSeeded(root, uint64(trial), &sMB)
	})
	if allocs != 0 {
		t.Fatalf("OS kernel trial allocates %v times, want 0", allocs)
	}
}

// TestOSTrialZeroAllocsAblations repeats the gate under the pruning
// ablations, whose kernel paths differ.
func TestOSTrialZeroAllocsAblations(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	g := randGraph(r, 8, 8, 30)
	for _, opt := range []OSOptions{
		{DisableEdgePrune: true},
		{DropA2: true},
	} {
		idx := newOSIndex(g, opt)
		root := randx.New(55)
		var sMB butterfly.MaxSet
		const window = 128
		for trial := 1; trial <= window; trial++ {
			idx.runTrialSeeded(root, uint64(trial), &sMB)
		}
		trial := 0
		allocs := testing.AllocsPerRun(2*window, func() {
			trial = trial%window + 1
			idx.runTrialSeeded(root, uint64(trial), &sMB)
		})
		if allocs != 0 {
			t.Fatalf("%+v: OS kernel trial allocates %v times, want 0", opt, allocs)
		}
	}
}

// TestAnchoredTrialZeroAllocs repeats the gate for every anchor of a
// random graph: an anchored trial is the same kernel over the anchor's
// snapshot, so it allocates nothing at steady state either.
func TestAnchoredTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(98))
	g := randGraph(r, 8, 8, 50) // 5x6, 25 edges
	for _, a := range allAnchors(g) {
		idx := newOSIndexFromSnapshot(g, OSOptions{}, newAnchoredSnapshot(g, a))
		root := randx.New(61)
		var sMB butterfly.MaxSet
		const window = 128
		for trial := 1; trial <= window; trial++ {
			idx.runTrialSeeded(root, uint64(trial), &sMB)
		}
		trial := 0
		allocs := testing.AllocsPerRun(2*window, func() {
			trial = trial%window + 1
			idx.runTrialSeeded(root, uint64(trial), &sMB)
		})
		if allocs != 0 {
			t.Fatalf("anchor %v: anchored trial allocates %v times, want 0", a, allocs)
		}
	}
}

// TestOSParallelLowAllocs pins the parallel executor's allocation
// behavior at steady state. Before the snapshot cache and kernel pool,
// every parallel chunk built a fresh ~1MB osIndex and the path paid ~40
// allocations (~25KB) per trial; with the cache warm, a whole run costs
// only its fixed orchestration allocations (goroutines, chunk
// bookkeeping, per-worker accumulators), so the per-trial share must stay
// far below one.
func TestOSParallelLowAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	g := randGraph(r, 40, 20, 300)
	const trials, workers = 512, 2
	run := func() {
		if _, err := OSParallel(g, OSOptions{Trials: trials, Seed: 33}, workers); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: build the snapshot, pool the kernels
	allocs := testing.AllocsPerRun(10, run)
	if perTrial := allocs / trials; perTrial >= 1 {
		t.Fatalf("parallel OS allocates %.0f per run of %d trials (%.2f per trial), want well under 1 per trial",
			allocs, trials, perTrial)
	}
}

// TestOSTieParallelLowAllocs is TestOSParallelLowAllocs on the
// tie-heavy fixture, where most of a trial's maximum set is credited by
// endpoint pair: the pair tally's scratch is pooled with the kernel, so a
// warm run allocates its orchestration and the second worker's butterfly
// tally, not per trial (about 0.03 per trial). The run is long because
// the race detector makes sync.Pool drop a share of released kernels, and
// a rebuilt kernel re-warms its angle pool on this graph with a few
// hundred allocations.
func TestOSTieParallelLowAllocs(t *testing.T) {
	g := tieGraph()
	const trials, workers = 2048, 2
	run := func() {
		if _, err := OSParallel(g, OSOptions{Trials: trials, Seed: 35}, workers); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: build the snapshot, pool the kernels and their pair tallies
	allocs := testing.AllocsPerRun(10, run)
	if perTrial := allocs / trials; perTrial >= 0.5 {
		t.Fatalf("parallel OS on a tie-heavy graph allocates %.0f per run of %d trials (%.3f per trial), want under 0.5 per trial",
			allocs, trials, perTrial)
	}
}

// TestAnchoredJobLowAllocs pins what an anchored job allocates on a
// graph whose global snapshot is cached: it gathers its own snapshot from
// the global one and borrows its kernels from the global snapshot's pool,
// so after one warm-up job a 2-worker job builds no kernel. A job then
// allocates less than one kernel's liveFlat (one liveEdge per graph
// edge), in a bounded number of allocations. The race detector makes
// sync.Pool drop released kernels at random, so it skips there.
func TestAnchoredJobLowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop released kernels")
	}
	g := benchGraph()
	a := Anchor{Kind: AnchorLeft, U: g.Edge(g.EdgesByWeightDesc()[0]).U}
	const jobs, maxAllocs = 10, 100
	run := func() {
		if _, err := AnchoredOSParallel(g, a, OSOptions{Trials: 256, Seed: 29}, 2); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: build the global snapshot and its rank, pool the kernels
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range jobs {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / jobs
	allocs := (after.Mallocs - before.Mallocs) / jobs
	liveFlat := uint64(unsafe.Sizeof(liveEdge{})) * uint64(g.NumEdges())
	t.Logf("anchored job: %d B in %d allocations", bytes, allocs)
	if bytes >= liveFlat || allocs > maxAllocs {
		t.Fatalf("anchored job allocates %d B in %d allocations, want under %d B (one liveFlat) and at most %d",
			bytes, allocs, liveFlat, maxAllocs)
	}
}

// TestOptimizedEstimatorTrialZeroAllocs measures the optimized
// estimator's marginal cost per trial: two runs differing by exactly
// extraTrials trials must allocate the same amount, i.e. everything the
// estimator allocates is per-run setup, not per-trial work.
func TestOptimizedEstimatorTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	g := randDenseSmallGraph(r, 14)
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if cands.Len() == 0 {
		t.Skip("graph has no butterflies")
	}

	run := func(trials int) {
		if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: trials, Seed: 17}); err != nil {
			t.Fatal(err)
		}
	}
	const base, extraTrials = 1000, 1000
	short := testing.AllocsPerRun(5, func() { run(base) })
	long := testing.AllocsPerRun(5, func() { run(base + extraTrials) })
	// The hits scratch slice may still grow once or twice late in the
	// longer run; anything beyond a stray amortized append means the trial
	// loop itself allocates.
	if extra := long - short; extra > 2 {
		t.Fatalf("optimized estimator: %v extra allocations for %d extra trials, want ~0 (short=%v long=%v)",
			extra, extraTrials, short, long)
	}
}

// TestKarpLubyTrialZeroAllocs pins the same marginal property for the
// Karp-Luby estimator's trial loop: scaling BaseTrials must not scale
// allocations (per-candidate setup — diff sets, alias tables — is
// unavoidable, but trials are pure sampling).
func TestKarpLubyTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	g := randDenseSmallGraph(r, 14)
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if cands.Len() < 2 {
		t.Skip("graph has too few candidates")
	}

	run := func(baseTrials int) {
		if _, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: baseTrials, Seed: 19}); err != nil {
			t.Fatal(err)
		}
	}
	const base, extraTrials = 1000, 1000
	short := testing.AllocsPerRun(5, func() { run(base) })
	long := testing.AllocsPerRun(5, func() { run(base + extraTrials) })
	if extra := long - short; extra > 2 {
		t.Fatalf("karp-luby estimator: %v extra allocations for %d extra trials, want ~0 (short=%v long=%v)",
			extra, extraTrials, short, long)
	}
}
