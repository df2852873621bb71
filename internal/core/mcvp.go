package core

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// MCVPOptions configures the Monte-Carlo with Vertex Priority baseline.
type MCVPOptions struct {
	// Trials is N_mc, the number of sampled possible worlds. Must be > 0.
	Trials int
	// Seed makes the run reproducible; per-trial streams are derived from
	// it, so results are independent of scheduling.
	Seed uint64
	// Interrupt, if non-nil, is polled between trials and every few
	// thousand enumerated butterflies. When it returns true MCVP stops and
	// returns a partial Result over the completed trials (the current,
	// unfinished trial is discarded) with a resumable Checkpoint attached.
	// A single MC-VP trial enumerates every butterfly of a sampled world —
	// hundreds of millions on dense graphs — so long runs need a way out
	// mid-trial (the paper's MC-VP runs hit a 4-hour wall on the two large
	// datasets).
	Interrupt func() bool
	// Resume restores the accumulator from a checkpoint written by an
	// earlier cancelled run with identical options; the run continues at
	// trial Resume.Done+1 and the final Result is bit-identical to an
	// uninterrupted run.
	Resume *Checkpoint
	// Probe, if non-nil, receives run telemetry (trial counts and running
	// leader estimates; MC-VP has no ordered scan, so no prune split). Nil
	// costs one predictable branch per trial.
	Probe *telemetry.Probe

	// stop, when past the resumed prefix, ends the run after that trial
	// with a partial Result: a supervised segment.
	stop int
}

// MCVP is the baseline of Section IV (Algorithm 1): in each trial it
// samples a full possible world, enumerates every butterfly of that world
// with vertex-priority wedge generation (BFC-VP), accumulates the maximum
// weighted butterfly set S_MB, and credits each member with 1/N_mc
// probability mass.
func MCVP(g *bigraph.Graph, opt MCVPOptions) (*Result, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: MCVP requires Trials > 0, got %d", opt.Trials)
	}
	run := Checkpoint{Method: "mc-vp", Seed: opt.Seed, Trials: opt.Trials}
	if err := opt.Resume.resumeCheck(run, g); err != nil {
		return nil, err
	}
	// MC-VP's trial loop is its own, but its state is an ExecOS tally.
	st, err := resumeState(&ExecJob{Kind: ExecOS}, opt.Resume)
	if err != nil {
		return nil, err
	}
	order := g.PriorityOrder() // line 2 of Algorithm 1
	root := randx.New(opt.Seed)
	world := possible.NewWorld(g.NumEdges())
	var sMB butterfly.MaxSet
	meter := newTrialMeter(opt.Probe, 0, 0, false)
	end := opt.Trials
	if opt.stop > st.Done {
		end = min(end, opt.stop)
	}
	for st.Done < end && (opt.Interrupt == nil || !opt.Interrupt()) {
		trial := st.Done + 1
		rng := root.Derive(uint64(trial))
		possible.SampleInto(world, g, rng) // line 4
		sMB.Reset()
		interrupted := false
		enumerated := 0
		butterfly.ForEachInWorldVP(g, world, order, func(b butterfly.Butterfly, w float64) bool {
			sMB.Add(b, w) // lines 13–17
			enumerated++
			if enumerated%8192 == 0 && opt.Interrupt != nil && opt.Interrupt() {
				interrupted = true
				return false
			}
			return true
		})
		if interrupted {
			// The half-enumerated trial is discarded; the state only holds
			// fully completed trials, so the prefix stays exact.
			break
		}
		hit := !sMB.Empty()
		if hit {
			st.acc.addMaxSet(&sMB) // lines 18–19
		}
		st.Done = trial
		if meter.observe(trial, 0, hit) {
			probeEstimate(opt.Probe, 0, float64(st.acc.leadCount)/float64(trial), trial, st.acc.leadB, st.acc.leadW)
		}
	}
	meter.flush(st.Done)
	res := st.acc.resultNorm("mc-vp", opt.Trials, st.Done)
	if st.Done < opt.Trials {
		res.Partial = true
		res.Checkpoint = st.checkpoint(run, g)
	}
	probeFinish(opt.Probe, res)
	return res, nil
}
