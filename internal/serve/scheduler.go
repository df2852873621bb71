package serve

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/dist"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// scheduler owns the bounded admission queue and the worker pool. The
// queue depth bounds CLIENT admissions only; recovered jobs from a
// previous process were already accepted and are requeued past the
// bound — accepted work is never shed.
type scheduler struct {
	s       *Server
	workers int
	depth   int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Job
	stopped bool
	running map[*Job]struct{}

	wg sync.WaitGroup
}

func newScheduler(s *Server, workers, depth int) *scheduler {
	sc := &scheduler{s: s, workers: workers, depth: depth, running: make(map[*Job]struct{})}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

func (sc *scheduler) start() {
	for i := 0; i < sc.workers; i++ {
		sc.wg.Add(1)
		go sc.worker()
	}
}

// enqueue admits a client job; false means the queue is full (429) or
// the daemon is draining (503 upstream — checked before quota charge).
func (sc *scheduler) enqueue(j *Job) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.stopped || len(sc.queue) >= sc.depth {
		return false
	}
	sc.queue = append(sc.queue, j)
	sc.cond.Signal()
	return true
}

// enqueueRecovered requeues a job recovered from disk, bypassing the
// depth bound (see the scheduler doc comment).
func (sc *scheduler) enqueueRecovered(j *Job) {
	sc.mu.Lock()
	sc.queue = append(sc.queue, j)
	sc.cond.Signal()
	sc.mu.Unlock()
}

// queueLen reports the current queue occupancy.
func (sc *scheduler) queueLen() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.queue)
}

// worker pulls jobs until drain. Draining workers do not start queued
// jobs — those stay persisted as queued for the next process.
func (sc *scheduler) worker() {
	defer sc.wg.Done()
	for {
		sc.mu.Lock()
		for len(sc.queue) == 0 && !sc.stopped {
			sc.cond.Wait()
		}
		if sc.stopped {
			sc.mu.Unlock()
			return
		}
		j := sc.queue[0]
		sc.queue = sc.queue[1:]
		sc.running[j] = struct{}{}
		sc.mu.Unlock()

		sc.runJob(j)

		sc.mu.Lock()
		delete(sc.running, j)
		sc.mu.Unlock()
	}
}

// drain stops job starts, gives in-flight runs up to grace to finish
// naturally, then checkpoint-suspends the stragglers and waits for the
// workers to unwind.
func (sc *scheduler) drain(ctx context.Context, grace time.Duration) error {
	sc.mu.Lock()
	sc.stopped = true
	sc.cond.Broadcast()
	sc.mu.Unlock()

	done := make(chan struct{})
	go func() {
		sc.wg.Wait()
		close(done)
	}()

	graceT := time.NewTimer(grace)
	defer graceT.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	case <-graceT.C:
	}

	sc.mu.Lock()
	stragglers := make([]*Job, 0, len(sc.running))
	for j := range sc.running {
		stragglers = append(stragglers, j)
	}
	sc.mu.Unlock()
	for _, j := range stragglers {
		j.requestSuspend()
	}

	// Suspension is one checkpoint save away; bound the wait generously
	// rather than by the (possibly already-expired) caller context.
	final := time.NewTimer(30 * time.Second)
	defer final.Stop()
	select {
	case <-done:
		return nil
	case <-final.C:
		return fmt.Errorf("serve: drain: workers failed to unwind")
	}
}

// testJobHook, when non-nil, runs at the top of every runJob — tests
// inject deterministic faults behind the panic shield through it.
var testJobHook func(*Job)

// runJob executes one job end to end: observer + event plumbing, graph
// lookup, checkpoint-resumed and checkpoint-sliced engine runs, and
// terminal-state bookkeeping. Panics anywhere inside fail only this job.
func (sc *scheduler) runJob(j *Job) {
	s := sc.s

	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			sc.finalize(j, JobFailed, fmt.Sprintf("runner panic: %v\n%s", r, debug.Stack()), nil)
		}
	}()
	// The event ring closes on the way out, AFTER the observer defer
	// below has drained the hub's buffered events into it (defers run
	// LIFO) — closing inside finalize would drop the tail of the stream.
	defer j.events.close()
	if testJobHook != nil {
		testJobHook(j)
	}

	// A cancel that raced the queue: honour it without running.
	if cancelled, _ := j.interruptKind(); cancelled {
		sc.finalize(j, JobCancelled, "", nil)
		return
	}

	j.mu.Lock()
	j.state = JobRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.mu.Unlock()
	s.store.saveManifest(j.manifest())

	path, err := s.resolveGraph(j.Spec.Graph)
	if err != nil {
		sc.finalize(j, JobFailed, err.Error(), nil)
		return
	}
	entry, err := s.graphs.get(path)
	if err != nil {
		sc.finalize(j, JobFailed, fmt.Sprintf("loading graph: %v", err), nil)
		return
	}

	// Event plumbing: ring for streamers, optional JSONL journal on
	// disk. Journal damage is counted, never fatal to the run.
	var journalF *os.File
	var journal *telemetry.JournalWriter
	if s.cfg.JournalEvents {
		f, err := os.OpenFile(s.store.journalPath(j.ID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			journalF = f
			journal = telemetry.NewJournalWriter(f)
		}
	}
	obs := mpmb.NewObserver(mpmb.ObserverConfig{OnEvent: func(e mpmb.Event) {
		j.events.append(e)
		if journal != nil {
			journal.Write(e)
		}
	}})
	j.setObserver(obs)
	defer func() {
		j.setObserver(nil)
		obs.Close()
		if journalF != nil {
			journalF.Close()
		}
	}()
	ckpt := s.store.jobCheckpoints(obs)

	// Resume from a persisted checkpoint if one exists (drain suspension
	// or a crashed process). The engine validates it against the spec and
	// the graph CRC; the finished result is bit-identical to an
	// uninterrupted run.
	ck, err := s.store.loadCheckpoint(ckpt, j.ID)
	if err != nil {
		sc.finalize(j, JobFailed, fmt.Sprintf("loading checkpoint: %v", err), nil)
		return
	}
	if ck != nil {
		j.mu.Lock()
		j.resumed = true
		j.mu.Unlock()
	}

	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.attachCancel(cancel)

	res, err := sc.runSliced(runCtx, j, entry, obs, ckpt, ck)
	if err != nil {
		sc.finalize(j, JobFailed, err.Error(), nil)
		return
	}
	if res == nil {
		// runSliced already finalized (cancelled or suspended).
		return
	}
	sc.finalize(j, JobDone, "", res)
}

// runSliced drives the engine in checkpoint-length slices: each slice
// runs with a context that expires after CheckpointEvery, the partial
// result's checkpoint is persisted through the retrying store, and the
// next slice resumes from it. Because every trial's stream derives from
// (Seed, trial index), the sliced run's final Result is bit-identical
// to an unsliced one.
//
// Returns (result, nil) for a terminal result — complete, or an honest
// partial from the engine's own deadline/epsilon stopping. Returns
// (nil, nil) after finalizing a cancellation or suspension itself.
func (sc *scheduler) runSliced(runCtx context.Context, j *Job, entry *graphEntry, obs *mpmb.Observer, ckpt *core.CheckpointStore, ck *mpmb.Checkpoint) (*mpmb.Result, error) {
	s := sc.s
	spec := j.Spec
	slicing := spec.resumable() && s.cfg.CheckpointEvery > 0
	// The per-attempt deadline anchors once, before the first slice —
	// slicing must not stretch the budget.
	started := time.Now()

	// Degradation record across slices: the dist→local fallback is noted
	// once per job, at the merged prefix where it first engaged, and
	// stamped onto whichever slice's result ends the run.
	var fellBack bool
	var fellBackAt int
	noteFallback := func(res *mpmb.Result) {
		if !fellBack || res == nil {
			return
		}
		if res.Adaptive == nil {
			reason := mpmb.StopCompleted
			if res.Partial {
				reason = mpmb.StopCancelled
			}
			res.Adaptive = &mpmb.AdaptiveReport{StopReason: reason, FinalMethod: res.Method}
		}
		res.Adaptive.Transitions = append(res.Adaptive.Transitions, mpmb.Transition{
			From: "dist", To: "local", Reason: "fleet-unreachable", AtTrial: fellBackAt,
		})
	}

	for {
		opt := spec.options(obs, started)
		opt.Resume = ck
		var distEx *dist.Executor
		if s.coord != nil && spec.distributable() {
			// Dist mode: the sampling phase fans out to the worker fleet.
			// Slicing still applies — a slice-end interrupt drains in-flight
			// leases into the merged prefix before collecting, so every
			// slice commits real progress even when CheckpointEvery is
			// shorter than one lease's execution time, and the next slice
			// re-registers the remainder.
			distEx = &dist.Executor{C: s.coord}
			if s.cfg.DistFallback > 0 {
				distEx.Fallback = &core.LocalExecutor{Workers: spec.Workers}
				distEx.FleetGrace = s.cfg.DistFallback
			}
			opt.Executor = distEx
		}

		sliceCtx := runCtx
		var sliceCancel context.CancelFunc
		if slicing {
			sliceCtx, sliceCancel = context.WithTimeout(runCtx, s.cfg.CheckpointEvery)
		}
		res, err := entry.searcher.SearchContext(sliceCtx, opt)
		if sliceCancel != nil {
			sliceCancel()
		}
		if err != nil {
			return nil, err
		}
		if distEx != nil && !fellBack {
			if fb, at := distEx.FellBack(); fb {
				fellBack, fellBackAt = true, at
				s.stats.distFallbacks.Add(1)
			}
		}

		if !res.Partial {
			noteFallback(res)
			return res, nil
		}

		// Partial result: either the engine stopped itself honestly
		// (deadline, epsilon — Adaptive carries the reason) or a context
		// fired (slice timer, client cancel, drain suspend).
		interrupted := res.Adaptive == nil || res.Adaptive.StopReason == mpmb.StopCancelled
		if !interrupted {
			noteFallback(res)
			return res, nil
		}

		checkpointed := false
		if res.Checkpoint != nil {
			if err := s.store.saveCheckpoint(ckpt, j.ID, res.Checkpoint); err != nil {
				// Periodic checkpoint failure is survivable (the run can
				// continue and retry next slice); an interrupt without a
				// persisted checkpoint loses the prefix, so surface it.
				if cancelled, suspend := j.interruptKind(); cancelled || suspend {
					return nil, fmt.Errorf("checkpointing interrupted run: %w", err)
				}
			} else {
				checkpointed = true
				s.stats.checkpoints.Add(1)
			}
		}
		j.progress(res.TrialsDone, checkpointed)
		s.store.saveManifest(j.manifest())

		cancelled, suspend := j.interruptKind()
		switch {
		case cancelled:
			noteFallback(res)
			sc.finalize(j, JobCancelled, "", res)
			return nil, nil
		case suspend:
			noteFallback(res)
			sc.finalize(j, JobSuspended, "", res)
			return nil, nil
		}

		// Slice timer fired: continue from the checkpoint. A resumable
		// method that returned no checkpoint cannot make progress by
		// looping — treat the partial as terminal rather than spin.
		if res.Checkpoint == nil {
			noteFallback(res)
			return res, nil
		}
		ck = res.Checkpoint
	}
}

// finalize moves a job to its terminal (or suspended) state: persists
// the result document when one exists, updates quota occupancy, closes
// the event stream, and saves the final manifest.
func (sc *scheduler) finalize(j *Job, st JobState, errMsg string, res *mpmb.Result) {
	s := sc.s

	if res != nil {
		j.setResult(res)
		j.progress(res.TrialsDone, false)
		if !res.Partial {
			j.progress(res.Trials, false)
		}
		if st != JobSuspended {
			if err := s.store.saveResult(resultDocFrom(j.ID, j.Spec, res)); err != nil && errMsg == "" {
				st, errMsg = JobFailed, err.Error()
			}
		}
	}

	j.mu.Lock()
	alreadyClosed := j.state.terminal() || j.state == JobSuspended
	j.state = st
	if errMsg != "" {
		j.errMsg = errMsg
	}
	if st != JobSuspended {
		j.finished = time.Now()
	}
	j.mu.Unlock()
	if alreadyClosed {
		return
	}

	switch st {
	case JobDone:
		s.stats.completed.Add(1)
		// The run finished; its checkpoint is obsolete.
		s.store.removeCheckpoint(j.ID)
	case JobFailed:
		s.stats.failed.Add(1)
	case JobCancelled:
		s.stats.cancelled.Add(1)
	case JobSuspended:
		s.stats.suspended.Add(1)
	}
	if st.terminal() {
		// Suspended jobs keep their concurrency slot on the books: the
		// daemon still owes the work, and recovery re-occupies it.
		s.quotas.release(j.Tenant)
	}

	s.store.saveManifest(j.manifest())
	close(j.done)
}
