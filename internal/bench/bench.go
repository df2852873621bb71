// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section VIII) on the synthetic
// dataset substitutes. Each Run* function corresponds to one figure or
// table — see DESIGN.md §5 for the full index — and returns structured
// results that the mpmb-bench command renders as text tables; the
// top-level bench_test.go exposes the same runners as testing.B
// benchmarks.
//
// Absolute times will not match the paper's C++ testbed; the harness
// exists to reproduce the paper's qualitative shape: which method wins on
// which dataset, by what rough factor, and where the crossovers fall.
package bench

import (
	"fmt"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/dataset"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// Method names a sampling algorithm in the paper's terminology.
type Method string

// The four methods of the evaluation (Table IV).
const (
	MCVP  Method = "mc-vp"
	OS    Method = "os"
	OLSKL Method = "ols-kl"
	OLS   Method = "ols"
)

// AllMethods lists the methods in paper order.
var AllMethods = []Method{MCVP, OS, OLSKL, OLS}

// Options configures a harness run. The zero value is NOT usable; call
// DefaultOptions and adjust.
type Options struct {
	// Seed drives dataset generation and every sampler.
	Seed uint64
	// Scale multiplies dataset sizes (see dataset.Config.Scale).
	Scale float64
	// SampleTrials is the sampling-phase N for MC-VP, OS and OLS, and the
	// BaseTrials reference for OLS-KL. The paper uses 2×10⁴; the harness
	// default is 2×10³ so a full sweep finishes in minutes.
	SampleTrials int
	// PrepTrials is N_os for the OLS preparing phase (paper: 100).
	PrepTrials int
	// Mu is the target probability for trial-number arithmetic
	// (Theorem IV.1, Equation 8). Paper default 0.05.
	Mu float64
	// Eps and Delta are the approximation parameters (paper: 0.1, 0.1).
	Eps, Delta float64
	// TimeBudget caps the measured wall-clock a single (method, dataset)
	// cell may consume in the timing experiments. When a pilot run
	// projects the full trial count beyond the budget, the harness runs
	// only the pilot and extrapolates, marking the cell Extrapolated —
	// the analogue of the paper's 4-hour limit that MC-VP exceeds on the
	// two large datasets.
	TimeBudget time.Duration
	// Datasets restricts which Table III datasets run (default: all).
	Datasets []string

	// AuditEvery > 0 turns the conformance experiment's self-healing
	// demonstration on in supervised mode: an under-prepared OLS run on
	// the angle-stressor graph whose coverage audits (one per AuditEvery
	// sampling trials) must recover the exact leader. 0 leaves the
	// demonstration off unless SelfHealing forces the unsupervised
	// (deliberately failing) variant.
	AuditEvery int
	// SelfHealing forces the conformance self-healing demonstration even
	// with AuditEvery == 0 — the plain variant, which fails by design
	// (used to verify the check's power).
	SelfHealing bool
	// Epsilon / Deadline forward accuracy-aware stopping to the
	// supervised conformance run (zero values = off).
	Epsilon  float64
	Deadline time.Time
}

// DefaultOptions mirrors the paper's Section VIII-B setup scaled to a
// laptop (see SampleTrials).
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		Scale:        1,
		SampleTrials: 2000,
		PrepTrials:   100,
		Mu:           0.05,
		Eps:          0.1,
		Delta:        0.1,
		TimeBudget:   30 * time.Second,
		Datasets:     append([]string(nil), dataset.Names...),
	}
}

// Timing is one cell of a timing experiment: a method's cost on one
// dataset, split into the OLS phases where applicable.
type Timing struct {
	Dataset string
	Method  Method
	// Prep is the preparing-phase time (OLS variants only, else 0).
	Prep time.Duration
	// Sampling is the sampling-phase time.
	Sampling time.Duration
	// Trials actually timed (before extrapolation).
	Trials int
	// Extrapolated marks cells whose Sampling was projected from a pilot
	// run because the full trial count would exceed Options.TimeBudget.
	Extrapolated bool
}

// Total returns Prep + Sampling.
func (t Timing) Total() time.Duration { return t.Prep + t.Sampling }

// subsampleRNG derives a deterministic generator for vertex subsampling
// from the seed, the dataset name and the fraction, so every method sees
// the same subgraph.
func subsampleRNG(seed uint64, name string, frac float64) *randx.RNG {
	h := seed
	for _, c := range name {
		h = h*31 + uint64(c)
	}
	return randx.New(h ^ uint64(frac*1024))
}

// loadDatasets materializes the selected datasets once per harness call.
func loadDatasets(opt Options) ([]*dataset.Dataset, error) {
	names := opt.Datasets
	if len(names) == 0 {
		names = dataset.Names
	}
	out := make([]*dataset.Dataset, 0, len(names))
	for _, n := range names {
		d, err := dataset.ByName(n, dataset.Config{Seed: opt.Seed, Scale: opt.Scale})
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// runMethodTimed executes one method on one graph under the time budget,
// returning the timing cell. Sampling-phase time is measured over the
// full trial count when it fits the budget, otherwise extrapolated from a
// pilot (pilotTrials trials).
func runMethodTimed(g *bigraph.Graph, name string, m Method, opt Options) (Timing, error) {
	cell := Timing{Dataset: name, Method: m}
	switch m {
	case MCVP:
		// MC-VP pilots under a hard deadline: one trial alone can exceed
		// any sensible budget (the paper's 4-hour DNF), and the interrupt
		// hook is the only way out mid-trial. An interrupted pilot yields
		// an extrapolated LOWER bound on the full cost.
		pilot := 5
		if opt.SampleTrials < pilot {
			pilot = opt.SampleTrials
		}
		deadline := time.Now().Add(opt.TimeBudget / 2)
		t0 := time.Now()
		res, err := core.MCVP(g, core.MCVPOptions{
			Trials:    pilot,
			Seed:      opt.Seed,
			Interrupt: func() bool { return time.Now().After(deadline) },
		})
		pilotTime := time.Since(t0)
		if err != nil {
			return cell, err
		}
		interrupted, completed := res.Partial, res.TrialsDone
		perTrial := pilotTime / time.Duration(completed+1)
		if !interrupted && completed > 0 {
			perTrial = pilotTime / time.Duration(completed)
		}
		projected := perTrial * time.Duration(opt.SampleTrials)
		if interrupted || projected > opt.TimeBudget {
			cell.Sampling = projected
			cell.Trials = completed
			cell.Extrapolated = true
			return cell, nil
		}
		t0 = time.Now()
		if _, err := core.MCVP(g, core.MCVPOptions{Trials: opt.SampleTrials, Seed: opt.Seed}); err != nil {
			return cell, err
		}
		cell.Sampling = time.Since(t0)
		cell.Trials = opt.SampleTrials
		return cell, nil

	case OS:
		pilot := 5
		if opt.SampleTrials < pilot {
			pilot = opt.SampleTrials
		}
		run := func(trials int) (time.Duration, error) {
			t0 := time.Now()
			_, err := core.OS(g, core.OSOptions{Trials: trials, Seed: opt.Seed})
			return time.Since(t0), err
		}
		pilotTime, err := run(pilot)
		if err != nil {
			return cell, err
		}
		perTrial := pilotTime / time.Duration(pilot)
		projected := perTrial * time.Duration(opt.SampleTrials)
		if projected > opt.TimeBudget {
			cell.Sampling = projected
			cell.Trials = pilot
			cell.Extrapolated = true
			return cell, nil
		}
		full, err := run(opt.SampleTrials)
		if err != nil {
			return cell, err
		}
		cell.Sampling = full
		cell.Trials = opt.SampleTrials
		return cell, nil

	case OLSKL, OLS:
		t0 := time.Now()
		cands, err := core.PrepareCandidates(g, opt.PrepTrials, opt.Seed, core.OSOptions{})
		if err != nil {
			return cell, err
		}
		cell.Prep = time.Since(t0)
		olsOpt := core.OLSOptions{
			PrepTrials:  opt.PrepTrials,
			Trials:      opt.SampleTrials,
			Seed:        opt.Seed,
			UseKarpLuby: m == OLSKL,
			KL:          core.KLOptions{Mu: opt.Mu},
		}
		t0 = time.Now()
		if _, err := core.OLSSamplingPhaseParallel(cands, olsOpt, 1); err != nil {
			return cell, err
		}
		cell.Sampling = time.Since(t0)
		cell.Trials = opt.SampleTrials
		return cell, nil
	}
	return cell, fmt.Errorf("bench: unknown method %q", m)
}
