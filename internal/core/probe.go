package core

import (
	"math"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/interval"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// probeFlushEvery is a one-worker run's flush cadence: trial tallies
// accumulate in plain locals and fold into the registry's atomic shards
// only every this many trials, keeping atomics (and time.Now) off the
// per-trial hot path. Multi-worker runs flush per claimed chunk instead
// (parChunkTrials), so a completed chunk is always fully visible.
const probeFlushEvery = 64

// trialMeter batches one goroutine's trial telemetry between flushes.
// With a nil probe every method is a single predictable branch; the
// meter lives on the runner's stack and allocates nothing.
type trialMeter struct {
	p *telemetry.Probe
	w int
	// numE is the snapshot length the scanned/pruned split is measured
	// against (edges for OS-family kernels, candidates for the OLS
	// sampling phase; 0 when the method has no ordered scan, e.g. mc-vp).
	numE    int64
	cand    bool // route flushes to the candidate counters
	trials  int64
	hits    int64
	scanned int64
	last    time.Time
}

func newTrialMeter(p *telemetry.Probe, w, numE int, cand bool) trialMeter {
	m := trialMeter{p: p, w: w, numE: int64(numE), cand: cand}
	if p != nil {
		m.last = time.Now()
	}
	return m
}

// observe accumulates one completed trial and flushes on the batch
// cadence. It reports whether it flushed, so one-worker runs can emit
// running-estimate updates at the same cadence.
func (m *trialMeter) observe(trial, scanned int, hit bool) bool {
	if m.p == nil {
		return false
	}
	m.trials++
	m.scanned += int64(scanned)
	if hit {
		m.hits++
	}
	if m.trials >= probeFlushEvery {
		m.flush(trial)
		return true
	}
	return false
}

// flush folds the batch into the registry and emits one TrialDone event.
// lastTrial is the last completed 1-based trial index.
func (m *trialMeter) flush(lastTrial int) {
	if m.p == nil || m.trials == 0 {
		return
	}
	now := time.Now()
	ns := now.Sub(m.last).Nanoseconds()
	pruned := m.trials*m.numE - m.scanned
	if pruned < 0 {
		pruned = 0
	}
	if m.cand {
		m.p.FlushCandTrials(m.w, m.trials, m.hits, m.scanned, pruned, ns)
	} else {
		m.p.FlushEdgeTrials(m.w, m.trials, m.hits, m.scanned, pruned, ns)
	}
	m.p.Emit(telemetry.Event{Kind: telemetry.EventTrialDone, Worker: m.w, Trial: lastTrial, N: m.trials})
	m.trials, m.hits, m.scanned = 0, 0, 0
	m.last = now
}

// probeKLCandidate credits one priced Karp-Luby candidate: its executed
// trials go to the candidate counters (no scan split — Karp-Luby has no
// ordered scan, and its trials are rejection samples, not hit/miss world
// trials) plus one TrialDone event carrying the candidate index. last is
// the worker-local timing anchor, advanced on every call.
func probeKLCandidate(p *telemetry.Probe, w, cand, used int, last *time.Time) {
	if p == nil {
		return
	}
	now := time.Now()
	ns := now.Sub(*last).Nanoseconds()
	*last = now
	if used == 0 {
		return // resolved analytically, no trials to credit
	}
	p.FlushCandTrials(w, int64(used), 0, 0, 0, ns)
	p.Emit(telemetry.Event{Kind: telemetry.EventTrialDone, Worker: w, Trial: cand + 1, N: int64(used)})
}

// probeButterfly packs a butterfly into the telemetry event form.
func probeButterfly(b butterfly.Butterfly) [4]uint32 {
	return [4]uint32{b.U1, b.U2, b.V1, b.V2}
}

// probeEstimate publishes the leader estimate pe after n trials with the
// Agresti-Coull half-width of the count round(pe·n) (the same
// interval.NormalHalfWidth the supervisor's Epsilon rule uses) as gauges
// plus an EstimateUpdated event. A proportion c/n recovers c exactly.
func probeEstimate(p *telemetry.Probe, w int, pe float64, n int, b butterfly.Butterfly, weight float64) {
	if p == nil || n <= 0 {
		return
	}
	hw := interval.NormalHalfWidth(int64(math.Round(pe*float64(n))), n, defaultEpsilonZ)
	p.SetLeader(pe, hw)
	p.Emit(telemetry.Event{
		Kind: telemetry.EventEstimateUpdated, Worker: w, Trial: n,
		B: probeButterfly(b), Weight: weight, P: pe, HalfWidth: hw,
	})
}

// probeFinish publishes the final leader estimate of a finished (or
// partial) Result, so the terminal gauges match the Result exactly. The
// half-width comes from the leader count round(P·n), as the supervisor's
// Epsilon rule reads it. For os and mc-vp, P = c/n, which the rounding
// recovers exactly (c/n is exact in float64 for any feasible c). An ols
// leader's P is c/n too unless it is in the heaviest weight class, which
// ols prices at Pr[E(B)]. ols-kl estimates are not per-trial proportions,
// so their half-width gauge is reported as 0.
func probeFinish(p *telemetry.Probe, res *Result) {
	if p == nil || res == nil || len(res.Estimates) == 0 {
		return
	}
	e := res.Estimates[0]
	n := res.TrialsDone
	if n <= 0 {
		return
	}
	if res.Method == "ols-kl" {
		p.SetLeader(e.P, 0)
		p.Emit(telemetry.Event{
			Kind: telemetry.EventEstimateUpdated, Trial: n,
			B: probeButterfly(e.B), Weight: e.Weight, P: e.P,
		})
		return
	}
	probeEstimate(p, 0, e.P, n, e.B, e.Weight)
}
