package core

import (
	"testing"
)

// TestInterruptHooks verifies the cancellation path of every
// interrupt-capable runner: an immediate interrupt yields a partial,
// zero-trial result (not an error), and a nil hook leaves behaviour
// unchanged.
func TestInterruptHooks(t *testing.T) {
	g := figure1Graph()
	always := func() bool { return true }

	res, err := OS(g, OSOptions{Trials: 100, Seed: 1, Interrupt: always})
	if err != nil {
		t.Fatalf("OS interrupt: err = %v", err)
	}
	if !res.Partial || res.TrialsDone != 0 || res.Trials != 100 {
		t.Fatalf("OS interrupt: Partial=%v TrialsDone=%d Trials=%d, want partial 0/100", res.Partial, res.TrialsDone, res.Trials)
	}
	if res.Checkpoint == nil || res.Checkpoint.Method != "os" || res.Checkpoint.Done != 0 {
		t.Fatalf("OS interrupt: checkpoint = %+v", res.Checkpoint)
	}

	// Each sampling-phase estimator: a partial Result with nothing done
	// and a checkpoint at 0, and no error from the bare estimator.
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, kl := range []bool{false, true} {
		opt := OLSOptions{Trials: 100, Seed: 1, UseKarpLuby: kl, Interrupt: always}
		res, err := OLSSamplingPhaseParallel(cands, opt, 1)
		if err != nil {
			t.Fatalf("%s interrupt: err = %v", opt.method(), err)
		}
		if !res.Partial || res.TrialsDone != 0 || res.Checkpoint == nil || res.Checkpoint.Done != 0 {
			t.Fatalf("%s interrupt: Partial=%v TrialsDone=%d checkpoint=%+v, want partial at 0", opt.method(), res.Partial, res.TrialsDone, res.Checkpoint)
		}
	}
	if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: 100, Seed: 1, Interrupt: always}); err != nil {
		t.Fatalf("optimized interrupt: err = %v", err)
	}
	if _, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: 100, Seed: 1, Interrupt: always}); err != nil {
		t.Fatalf("karp-luby interrupt: err = %v", err)
	}

	// A counting interrupt lets some work through and then stops; the
	// partial result is normalized over exactly the completed prefix.
	calls := 0
	res, err = OS(g, OSOptions{Trials: 100, Seed: 1, Interrupt: func() bool {
		calls++
		return calls > 5
	}})
	if err != nil {
		t.Fatalf("OS counting interrupt: err = %v", err)
	}
	if calls != 6 {
		t.Fatalf("OS polled interrupt %d times before stopping, want 6", calls)
	}
	if !res.Partial || res.TrialsDone != 5 {
		t.Fatalf("OS counting interrupt: Partial=%v TrialsDone=%d, want partial 5", res.Partial, res.TrialsDone)
	}
}

// TestPartialPrefixMatchesShortRun is the graceful-degradation contract:
// a run cancelled after T of N trials returns exactly the estimates a
// fresh run with Trials=T produces — the prefix is a valid sample, not a
// corrupted one.
func TestPartialPrefixMatchesShortRun(t *testing.T) {
	g := figure1Graph()
	const full, cut = 200, 37

	t.Run("os", func(t *testing.T) {
		calls := 0
		part, err := OS(g, OSOptions{Trials: full, Seed: 7, Interrupt: func() bool {
			calls++
			return calls > cut
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != cut {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial %d", part.Partial, part.TrialsDone, cut)
		}
		short, err := OS(g, OSOptions{Trials: cut, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimates(t, part.Estimates, short.Estimates)
	})

	t.Run("mc-vp", func(t *testing.T) {
		calls := 0
		part, err := MCVP(g, MCVPOptions{Trials: full, Seed: 7, Interrupt: func() bool {
			calls++
			return calls > cut
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != cut {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial %d", part.Partial, part.TrialsDone, cut)
		}
		short, err := MCVP(g, MCVPOptions{Trials: cut, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimates(t, part.Estimates, short.Estimates)
	})

	t.Run("ols", func(t *testing.T) {
		// Let the preparing phase (100 polls) pass, cut the sampling phase.
		prep := 20
		calls := 0
		part, err := OLS(g, OLSOptions{PrepTrials: prep, Trials: full, Seed: 7, Interrupt: func() bool {
			calls++
			return calls > prep+cut
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != cut {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial %d", part.Partial, part.TrialsDone, cut)
		}
		short, err := OLS(g, OLSOptions{PrepTrials: prep, Trials: cut, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimates(t, part.Estimates, short.Estimates)
	})
}

// assertSameEstimates requires bit-identical estimate lists.
func assertSameEstimates(t *testing.T, got, want []Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("estimate counts differ: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("estimate %d differs: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
