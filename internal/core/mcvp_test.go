package core

import "testing"

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
