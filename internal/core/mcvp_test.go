package core

import (
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// TestMCVPInterrupt verifies the interrupt hook: an immediate interrupt
// returns a partial result with zero completed trials; a counting
// interrupt lets a bounded number of trials through.
func TestMCVPInterrupt(t *testing.T) {
	g := figure1Graph()

	res, err := MCVP(g, MCVPOptions{
		Trials:    100,
		Seed:      1,
		Interrupt: func() bool { return true },
	})
	if err != nil {
		t.Fatalf("err = %v, want partial result", err)
	}
	if !res.Partial || res.TrialsDone != 0 {
		t.Fatalf("Partial=%v TrialsDone=%d, want partial 0", res.Partial, res.TrialsDone)
	}

	calls := 0
	res, err = MCVP(g, MCVPOptions{
		Trials: 100,
		Seed:   1,
		Interrupt: func() bool {
			calls++
			return calls > 10
		},
	})
	if err != nil {
		t.Fatalf("err = %v, want partial result", err)
	}
	if !res.Partial || res.TrialsDone < 1 || res.TrialsDone >= 100 {
		t.Fatalf("Partial=%v TrialsDone=%d, want a partial count", res.Partial, res.TrialsDone)
	}

	// No interrupt: full run, TrialsDone reaches Trials.
	res, err = MCVP(g, MCVPOptions{Trials: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsDone != 50 || res.Trials != 50 {
		t.Fatalf("TrialsDone = %d, res.Trials = %d, want 50", res.TrialsDone, res.Trials)
	}
}

// TestMCVPTrialHookSeesEmptyTrials ensures OnTrial fires even for worlds
// with no butterfly.
func TestMCVPTrialHookSeesEmptyTrials(t *testing.T) {
	// Single uncertain edge: no world has a butterfly.
	b := bigraphBuilder1()
	fired := 0
	_, err := MCVP(b, MCVPOptions{Trials: 20, Seed: 2, OnTrial: func(trial int, sMB *butterfly.MaxSet) {
		fired++
		if !sMB.Empty() {
			t.Fatal("butterfly reported on a butterfly-free graph")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 20 {
		t.Fatalf("OnTrial fired %d times, want 20", fired)
	}
}
