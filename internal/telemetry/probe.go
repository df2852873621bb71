package telemetry

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// Phase names used on probes, events and pprof labels.
const (
	PhasePrep   = "prep"
	PhaseSample = "sample"
	PhaseAudit  = "audit"
)

// Probe is the handle internal/core instruments against. A nil *Probe is
// the disabled state: every method is nil-safe and returns immediately,
// so kernels guard a single pointer and pay nothing else when telemetry
// is off.
type Probe struct {
	Reg    *Registry
	Hub    *Hub
	Method string
	// Phase routes trial flushes: PhasePrep credits CounterPrepTrials,
	// anything else credits CounterTrials. Empty means PhaseSample.
	Phase string
}

// WithPhase returns a copy of the probe bound to the given phase.
func (p *Probe) WithPhase(phase string) *Probe {
	if p == nil {
		return nil
	}
	q := *p
	q.Phase = phase
	return &q
}

func (p *Probe) phase() string {
	if p.Phase == "" {
		return PhaseSample
	}
	return p.Phase
}

// EnsureWorkers sizes the registry's shard array for a run with n
// workers. Runners call it before the workers start flushing.
func (p *Probe) EnsureWorkers(n int) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.EnsureWorkers(n)
}

// FlushEdgeTrials folds a batch of OS-family trial tallies accumulated
// in worker-local variables into worker w's shard. scanned/pruned split
// the per-trial edge scan (Algorithm 2 line 7); the probe's phase routes
// the trial count to CounterPrepTrials or CounterTrials. totalNs <= 0
// skips the latency histogram.
func (p *Probe) FlushEdgeTrials(w int, trials, hits, scanned, pruned, totalNs int64) {
	if p == nil || p.Reg == nil || trials == 0 {
		return
	}
	r := p.Reg
	if p.Phase == PhasePrep {
		r.Add(w, CounterPrepTrials, trials)
	} else {
		r.Add(w, CounterTrials, trials)
	}
	r.Add(w, CounterTrialHits, hits)
	r.Add(w, CounterEdgesScanned, scanned)
	r.Add(w, CounterEdgesPruned, pruned)
	if totalNs > 0 {
		r.RecordTrialNs(w, trials, totalNs)
	}
}

// FlushCandTrials folds a batch of OLS sampling-phase trial tallies:
// scanned/pruned split the per-trial candidate scan (Algorithm 3 early
// break). Always credits CounterTrials.
func (p *Probe) FlushCandTrials(w int, trials, hits, scanned, pruned, totalNs int64) {
	if p == nil || p.Reg == nil || trials == 0 {
		return
	}
	r := p.Reg
	r.Add(w, CounterTrials, trials)
	r.Add(w, CounterTrialHits, hits)
	r.Add(w, CounterCandScanned, scanned)
	r.Add(w, CounterCandPruned, pruned)
	if totalNs > 0 {
		r.RecordTrialNs(w, trials, totalNs)
	}
}

// Add increments a single counter on worker w's shard.
func (p *Probe) Add(w int, c Counter, delta int64) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.Add(w, c, delta)
}

// SetLeader records the running leading-estimate gauges.
func (p *Probe) SetLeader(prob, halfWidth float64) {
	if p == nil || p.Reg == nil {
		return
	}
	p.Reg.SetLeader(prob, halfWidth)
}

// Emit offers an event to the ring, stamping the probe's method and
// phase when the event leaves them empty. Never blocks.
func (p *Probe) Emit(e Event) {
	if p == nil || p.Hub == nil {
		return
	}
	if e.Method == "" {
		e.Method = p.Method
	}
	if e.Phase == "" {
		e.Phase = p.phase()
	}
	p.Hub.Emit(e)
}

// LabelWorker applies pprof labels (method, phase, worker) to the
// calling goroutine, so CPU profiles of a parallel run attribute samples
// per worker and per phase.
func (p *Probe) LabelWorker(w int) {
	if p == nil {
		return
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels(
		"method", p.Method,
		"phase", p.phase(),
		"worker", strconv.Itoa(w),
	))
	pprof.SetGoroutineLabels(ctx)
}
