package dist

import (
	"fmt"
	"sync"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Executor is the distributed core.TrialExecutor: ExecuteTrials
// registers the job with a Coordinator and blocks until the worker
// fleet completes it (or the job's Interrupt fires, in which case
// in-flight leases are drained first), then returns the coordinator's
// prefix-merged aggregate. Because every unit's stream
// derives from (phase seed, unit index) and the coordinator merges in
// prefix order, the returned ExecResult — and therefore the runner's
// Result — is bit-identical to local execution, regardless of fleet
// size, lease order, duplicated grants, or mid-run worker deaths.
//
// The coordinator is a pure control plane: a run through this executor
// makes no progress until at least one worker joins it — unless a
// Fallback is configured, in which case a fleet silent past FleetGrace
// degrades the run to an in-process fallback worker that leases and
// completes spans through the exact same merge, preserving bit-identity
// with zero live workers. Workers that come (back) mid-run simply share
// the lease book with the fallback worker.
type Executor struct {
	// C is the coordinator the job registers with.
	C *Coordinator
	// Poll is the Interrupt poll cadence while waiting (default 5ms).
	Poll time.Duration
	// DrainWait bounds how long an interrupted run waits for in-flight
	// leases to land before collecting (default 5s). The wait ends as
	// soon as every outstanding lease settles, so with a healthy fleet
	// it lasts roughly one lease's remaining execution time; the bound
	// only bites when a worker died holding a lease.
	DrainWait time.Duration
	// Fallback, when non-nil, is the degraded-mode escape hatch: the
	// local executor spans run on when the fleet stays silent past
	// FleetGrace. Nil keeps the pure control-plane behavior (no
	// progress without workers).
	Fallback *core.LocalExecutor
	// FleetGrace is how long the fleet may stay silent — no worker HTTP
	// exchange on the coordinator — before Fallback engages (default
	// 15s).
	FleetGrace time.Duration

	// Degradation record of the most recent ExecuteTrials, read after
	// it returns via FellBack.
	fellBack   bool
	fellBackAt int
}

// FellBack reports whether the most recent ExecuteTrials engaged the
// degraded-mode fallback, and the merged-prefix trial count at that
// moment. Callers use it to record the dist→local transition.
func (e *Executor) FellBack() (bool, int) { return e.fellBack, e.fellBackAt }

func (e *Executor) fleetGrace() time.Duration {
	if e.FleetGrace > 0 {
		return e.FleetGrace
	}
	return 15 * time.Second
}

// ExecuteTrials implements core.TrialExecutor.
func (e *Executor) ExecuteTrials(job *core.ExecJob) (*core.ExecResult, error) {
	if job.Start >= job.Units {
		return &core.ExecResult{Done: job.Units}, nil
	}
	e.fellBack, e.fellBackAt = false, 0
	id, done, err := e.C.register(job)
	if err != nil {
		return nil, err
	}
	poll := e.Poll
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	start := time.Now()
	stop := make(chan struct{})
	var fb sync.WaitGroup
	defer fb.Wait()   // the fallback worker finishes its claimed span
	defer close(stop) // ... after being told the run is over
	for {
		select {
		case <-done:
			// Fleet finished the whole range: collect the full aggregate.
			return e.C.collect(id)
		case <-ticker.C:
			if job.Interrupt != nil && job.Interrupt() {
				return e.drainAndCollect(id, done)
			}
			if e.Fallback != nil && !e.fellBack && e.fleetSilent(id, start) {
				e.fellBack = true
				e.fellBackAt = e.C.prefix(id)
				fb.Add(1)
				go func() {
					defer fb.Done()
					e.runFallback(stop, id, job)
				}()
			}
		}
	}
}

// fleetSilent reports whether no worker has contacted the coordinator
// for FleetGrace, measured from the later of the run's start and the
// fleet's last exchange (a fleet that was alive and vanished gets the
// same grace as one that never joined). A worker crunching a long
// span makes no HTTP calls at all, so wire silence alone is not
// death: as long as the job holds a lease inside its TTL the fleet
// counts as live, and a holder that really died hands the decision
// back here when its lease expires.
func (e *Executor) fleetSilent(id uint64, start time.Time) bool {
	ref := e.C.lastWorkerContact()
	if ref.Before(start) {
		ref = start
	}
	if time.Since(ref) < e.fleetGrace() {
		return false
	}
	return !e.C.hasLiveLease(id)
}

// runFallback is the in-process fallback worker: it leases spans of
// exactly this job and completes them through the coordinator's
// standard idempotent merge, so remote workers rejoining mid-run and
// the fallback worker compose without coordination. It stops when the
// job is done, the executor returns, or a span fails.
func (e *Executor) runFallback(stop <-chan struct{}, id uint64, job *core.ExecJob) {
	pool := 0
	if e.Fallback != nil {
		pool = e.Fallback.Workers
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		rep := e.C.grantJob("local-fallback", id)
		switch rep.Status {
		case LeaseGranted:
			msg, err := executeSpan(job, pool, rep.Lo, rep.Hi)
			if err != nil {
				return
			}
			msg.Worker, msg.Job, msg.Lease = "local-fallback", id, rep.Lease
			ack, err := e.C.complete(msg)
			if err != nil {
				return
			}
			if ack.JobDone {
				return
			}
		case LeaseWait:
			wait := time.Duration(rep.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = 25 * time.Millisecond
			}
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		default:
			return
		}
	}
}

// executeSpan runs the leased span lo..hi of job — its kind, graph,
// candidates, phase seed and kernel knobs — on a pool-worker LocalExecutor
// and returns the completion message for it. The span's telemetry flows
// into a fresh registry whose terminal snapshot becomes the exact counter
// delta shipped with the payload. Remote workers and the in-process
// fallback both run spans through it; the caller fills in the routing
// fields (Worker, Job, Lease).
func executeSpan(job *core.ExecJob, pool, lo, hi int) (*LeaseComplete, error) {
	reg := telemetry.NewRegistry()
	res, err := (&core.LocalExecutor{Workers: pool}).ExecuteTrials(&core.ExecJob{
		Kind:  job.Kind,
		Graph: job.Graph,
		Cands: job.Cands,
		Seed:  job.Seed,
		Units: hi,     // run exactly the leased range:
		Start: lo - 1, // units Start+1..Units = lo..hi
		OS:    job.OS,
		KL:    job.KL,
		Probe: &telemetry.Probe{Reg: reg, Method: job.Kind.String()},
	})
	if err != nil {
		return nil, err
	}
	if res.Done != hi {
		return nil, fmt.Errorf("dist: range %d..%d stopped at %d without an interrupt", lo, hi, res.Done)
	}
	m := reg.Snapshot()
	return &LeaseComplete{
		V:       Version,
		Lo:      lo,
		Hi:      hi,
		Payload: core.EncodePayload(job.Kind, res.Export()),
		Counters: Counters{
			Trials:       m.Trials,
			TrialHits:    m.TrialHits,
			EdgesScanned: m.EdgesScanned,
			EdgesPruned:  m.EdgesPruned,
			CandScanned:  m.CandScanned,
			CandPruned:   m.CandPruned,
		},
	}, nil
}

// drainAndCollect honors the local pool's contract on the distributed
// path: a claimed chunk is never abandoned. On interrupt the
// coordinator freezes the job's fresh-range frontier and the executor
// waits — bounded by DrainWait — for outstanding leases to settle, so
// work the fleet already claimed merges into the returned prefix
// instead of being discarded. Without this, an interrupt cadence
// shorter than one lease's execution time (a daemon's checkpoint
// slices, say) would collect an unchanged prefix every slice and the
// job would livelock at zero progress. Ranges completed beyond the
// merged prefix are still discarded — a resume recomputes them
// bit-identically, so nothing is lost and nothing double-counted.
func (e *Executor) drainAndCollect(id uint64, done <-chan struct{}) (*core.ExecResult, error) {
	e.C.drain(id)
	wait := e.DrainWait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	poll := e.Poll
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return e.C.collect(id)
		case <-deadline.C:
			// A worker died holding a lease (or none ever joined its
			// reissue): stop waiting and collect the merged prefix.
			return e.C.collect(id)
		case <-ticker.C:
			if e.C.settled(id) {
				return e.C.collect(id)
			}
		}
	}
}
