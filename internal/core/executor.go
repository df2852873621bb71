package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// TrialExecutor is the seam between a runner's bookkeeping (validation,
// resume, partial results, checkpoints) and the machinery that actually
// executes its independent trial units. The runners hand an executor a
// declarative ExecJob — "run units Start+1..Units of this kind" — and fold
// the returned additive payload into their resumed state.
//
// The contract every implementation must honour, because the runners'
// bit-identity guarantee rests on it:
//
//   - Prefix. The executed units are exactly Start+1..Done for the
//     returned Done (Done < Units only when job.Interrupt fired). No
//     unit is skipped, none is double-counted.
//   - Derivation. Unit i's random stream is derived from (job.Seed, i)
//     — randx.New(job.Seed).DeriveInto(i) — so WHERE and in WHAT ORDER
//     units run cannot change any result bit.
//   - Additivity. The payload is a sum (or disjoint write) over the
//     executed units; merging per-range payloads in prefix order equals
//     running the whole range in one place.
//
// LocalExecutor is the in-process worker pool every runner uses by
// default (a sequential run is LocalExecutor{Workers: 1});
// internal/dist provides the coordinator-backed distributed executor.
type TrialExecutor interface {
	// ExecuteTrials runs job's units Start+1..Units and returns the
	// state of the completed ones, Start+1..Done (its Start is the
	// job's). An error means no usable payload (e.g. a worker panic
	// abandoned a chunk mid-flight).
	ExecuteTrials(job *ExecJob) (*ExecResult, error)
}

// ExecKind selects which trial body an executor runs.
type ExecKind uint8

const (
	// ExecOS runs Ordering Sampling world trials (Algorithm 2) — of the
	// global query, of an anchored one (ExecJob.Anchor), or of the OLS
	// preparing phase; the payload is the per-butterfly maximum tally.
	ExecOS ExecKind = iota + 1
	// ExecOptimized runs shared sampling trials of the optimized
	// estimator (Algorithm 5); the payload is the per-candidate hit
	// count vector.
	ExecOptimized
	// ExecKarpLuby prices candidates with the Karp-Luby estimator
	// (Algorithm 4); the unit axis is the candidate index and the
	// payload is the per-candidate estimate + executed-trial pair.
	ExecKarpLuby
)

func (k ExecKind) String() string {
	switch k {
	case ExecOS:
		return "os"
	case ExecOptimized:
		return "optimized"
	case ExecKarpLuby:
		return "karp-luby"
	}
	return fmt.Sprintf("ExecKind(%d)", uint8(k))
}

// ExecJob is one executable range request. Exported fields are read-only
// to the executor; Graph and Cands are shared, immutable structures.
type ExecJob struct {
	// Kind picks the trial body; it decides which payload fields of the
	// ExecResult are populated.
	Kind ExecKind
	// Graph is the uncertain network the units sample.
	Graph *bigraph.Graph
	// Cands is the weight-sorted candidate set (ExecOptimized and
	// ExecKarpLuby only; nil for ExecOS).
	Cands *Candidates
	// Seed is the phase seed unit streams derive from.
	Seed uint64
	// Units is the total unit count of the run; Start the completed
	// prefix. The executor runs units Start+1..Units.
	Units int
	Start int
	// Anchor, when set, restricts an ExecOS job to butterflies containing
	// it: the job builds the anchor's view of the global snapshot, and its
	// units run pooled kernels restricted to that view.
	Anchor Anchor
	// OS carries the Ordering Sampling kernel knobs for ExecOS: the
	// pruning/ablation flags. Trial counts, seeds, Interrupt and Probe
	// travel in the fields of the job itself.
	OS OSOptions
	// Optimized carries the ExecOptimized per-trial knobs: the
	// EagerSampling/DisableEarlyBreak ablations.
	Optimized OptimizedOptions
	// KL carries the Karp-Luby knobs for ExecKarpLuby: BaseTrials and Mu.
	KL KLOptions
	// Interrupt, if non-nil, is polled during execution; when it
	// returns true the executor stops at a unit boundary and returns
	// the completed prefix. Must be safe for concurrent use.
	Interrupt func() bool
	// Probe receives the job's telemetry (nil-safe). Executors flush
	// exact counter deltas for completed units only, so the terminal
	// counters are a function of the done-prefix — identical across
	// local and distributed execution.
	Probe *telemetry.Probe
	// Workers is the parallelism hint for pool-style executors (0 =
	// executor default).
	Workers int

	// into is the package runner's state of units 1..Start. LocalExecutor
	// folds the run straight into it and returns it, so a one-worker run's
	// running leader estimates span the resumed prefix too; any other
	// executor's payload is folded in by the runner (see execute).
	into *ExecResult
	// stop, when past Start, is the last unit of a supervised segment;
	// execute lowers Units to it.
	stop int
}

// LocalOnly returns an error naming the part of the job that exists only
// in this process — an anchor or an estimator ablation — or nil.
// Executors that ship units to other processes must refuse a job for
// which it is non-nil rather than run a different computation.
func (j *ExecJob) LocalOnly() error {
	switch {
	case j.Anchor.Kind != 0:
		return fmt.Errorf("core: %v job sets the anchor %v", j.Kind, j.Anchor)
	case j.Optimized.EagerSampling || j.Optimized.DisableEarlyBreak:
		return fmt.Errorf("core: %v job sets the estimator ablations", j.Kind)
	}
	return nil
}

// ExecResult is the state of a run of trial units: the additive payload of
// units Start+1..Done, and the one in-memory form of a trial prefix. A
// runner's state starts at unit 0 (resumeState seeds it from a checkpoint
// and checkpoint cuts one from it); an executor returns the state of the
// range it ran, which Fold merges into the runner's.
type ExecResult struct {
	// Start and Done bound the units the state holds: Start+1..Done.
	Start, Done int
	// Payload is the state's tally; Export returns it in portable form.
	Payload

	// acc is the in-process form of the ExecOS payload: LocalExecutor
	// tallies into an accumulator directly, with no snapshot/rebuild
	// round trip. Remote payloads arrive in Counts instead.
	acc *probAccumulator
	// cands is the job's candidate set, which Probs prices against.
	cands *Candidates
}

// Payload is a trial range's tally in portable form: the payload section
// of a checkpoint and of a distributed range. Exactly one group is
// populated, matching the job's kind:
//
//   - ExecOS: Counts, the per-butterfly maximum tallies in canonical
//     order (counts add across ranges).
//   - ExecOptimized: CandCounts, a full-width per-candidate hit vector
//     (vectors add across ranges).
//   - ExecKarpLuby: CandProbs and CandTrials, each unit's candidate
//     estimate and executed trial count, unit Start+1 first (ranges
//     concatenate).
type Payload struct {
	Counts     []ButterflyCount
	CandCounts []int64
	CandProbs  []float64
	CandTrials []int64
}

// Check validates p as the payload of n completed units of a kind job,
// by the rules every checkpoint and every distributed range obeys. Only
// kind's fields may be set (kind 0 stands for whichever kind's are), and
// every entry must be in range: butterfly tallies list canonical
// butterflies in strictly increasing canonical order, with counts of at
// most n and finite weights; candidate hit counts lie in [0, n] and
// number exactly cands, unless cands is negative (unknown); the
// Karp-Luby vectors are equally long, cover at least the n units, and
// hold probabilities in [0, 1] and no negative trial count. A span — one
// executed range rather than a run's prefix — credits every butterfly it
// lists at least once and holds exactly its n units' Karp-Luby entries.
func (p Payload) Check(kind ExecKind, n, cands int, span bool) error {
	// set[k] reports whether kind k's fields are populated.
	set := [...]bool{ExecOS: p.Counts != nil, ExecOptimized: p.CandCounts != nil, ExecKarpLuby: p.CandProbs != nil || p.CandTrials != nil}
	for k, on := range set {
		switch {
		case !on || ExecKind(k) == kind:
		case kind == 0:
			kind = ExecKind(k)
		default:
			return fmt.Errorf("%v payload carries %v entries", kind, ExecKind(k))
		}
	}
	switch kind {
	case ExecOS:
		least := int64(0)
		if span {
			least = 1
		}
		for i, e := range p.Counts {
			switch {
			case e.Count < least || e.Count > int64(n):
				return fmt.Errorf("entry %d: count %d outside [%d,%d]", i, e.Count, least, n)
			case math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0):
				return fmt.Errorf("entry %d: non-finite weight", i)
			case e.B.U1 >= e.B.U2 || e.B.V1 >= e.B.V2:
				return fmt.Errorf("entry %d: non-canonical butterfly %v", i, e.B)
			case i > 0 && !lessButterfly(p.Counts[i-1].B, e.B):
				return fmt.Errorf("entry %d: butterflies out of canonical order", i)
			}
		}
	case ExecOptimized:
		if cands >= 0 && len(p.CandCounts) != cands {
			return fmt.Errorf("%d candidate counts for %d candidates", len(p.CandCounts), cands)
		}
		for i, v := range p.CandCounts {
			if v < 0 || v > int64(n) {
				return fmt.Errorf("candidate %d: count %d outside [0,%d]", i, v, n)
			}
		}
	case ExecKarpLuby:
		if len(p.CandProbs) != len(p.CandTrials) || len(p.CandProbs) < n || span && len(p.CandProbs) != n {
			return fmt.Errorf("Karp-Luby vectors of %d/%d entries for %d units", len(p.CandProbs), len(p.CandTrials), n)
		}
		for i, prob := range p.CandProbs {
			if math.IsNaN(prob) || prob < 0 || prob > 1 {
				return fmt.Errorf("candidate %d: probability %v outside [0,1]", i, prob)
			}
			if p.CandTrials[i] < 0 {
				return fmt.Errorf("candidate %d: negative trial count", i)
			}
		}
	}
	return nil
}

// CountsSnapshot exports the ExecOS payload as canonical-order
// checkpoint entries regardless of which internal representation the
// executor used. Merging the entries of several ranges (adding counts per
// butterfly) equals running the union of the ranges in one place.
func (r *ExecResult) CountsSnapshot() []ButterflyCount {
	if r.acc != nil {
		return r.acc.snapshot()
	}
	return r.Counts
}

// Export returns the state's payload in portable form: what a checkpoint
// or a distributed range carries.
func (r *ExecResult) Export() Payload {
	p := r.Payload
	p.Counts = r.CountsSnapshot()
	return p
}

// NewExecState returns the empty state of job at its Start, ready to fold
// executed ranges into. Its Karp-Luby vectors cover units Start+1..Units.
func NewExecState(job *ExecJob) (*ExecResult, error) {
	x := &ExecResult{Start: job.Start, Done: job.Start, cands: job.Cands}
	switch job.Kind {
	case ExecOS:
		x.acc = newProbAccumulator()
	case ExecOptimized:
		x.CandCounts = make([]int64, len(job.Cands.List))
	case ExecKarpLuby:
		n := max(job.Units-job.Start, 0)
		x.CandProbs, x.CandTrials = make([]float64, n), make([]int64, n)
	default:
		return nil, fmt.Errorf("core: unknown job kind %v", job.Kind)
	}
	return x, nil
}

// Fold merges r, the state of units x.Done+1..r.Done of a kind job, into
// x.
func (x *ExecResult) Fold(kind ExecKind, r *ExecResult) {
	if r == x {
		return
	}
	switch kind {
	case ExecOS:
		if r.acc != nil {
			x.acc.merge(r.acc)
		} else {
			x.acc.mergeCounts(r.Counts)
		}
	case ExecOptimized:
		for i, cnt := range r.CandCounts {
			x.CandCounts[i] += cnt
		}
	case ExecKarpLuby:
		copy(x.CandProbs[r.Start-x.Start:r.Done-x.Start], r.CandProbs)
		copy(x.CandTrials[r.Start-x.Start:r.Done-x.Start], r.CandTrials)
	}
	x.Done = r.Done
}

// execute runs job from the completed prefix ck holds (nil: from the
// start) — on exec, or on a LocalExecutor with the given worker count
// (≤ 1 meaning one) when exec is nil — and returns the run state with the
// executed range folded in. An explicit exec receives workers as the
// job's hint. It is how every runner in the package executes.
func execute(exec TrialExecutor, workers int, job *ExecJob, ck *Checkpoint) (*ExecResult, error) {
	x, err := resumeState(job, ck)
	if err != nil {
		return nil, err
	}
	job.Start, job.into = x.Done, x
	if job.stop > x.Done {
		job.Units = min(job.Units, job.stop)
	}
	if exec == nil {
		exec = &LocalExecutor{Workers: max(workers, 1)}
	}
	job.Workers = workers
	r, err := exec.ExecuteTrials(job)
	if err != nil {
		return nil, err
	}
	x.Fold(job.Kind, r)
	return x, nil
}

// LocalExecutor runs job ranges on an in-process worker pool: chunked
// atomic-cursor dispatch over per-worker scratch, folded into one payload
// once the workers join. It is the package's only loop over trial units.
// The zero value is ready to use (GOMAXPROCS workers).
//
// With one worker it claims one unit per interrupt poll and flushes
// telemetry every probeFlushEvery units, publishing running leader
// estimates as it goes. With more it claims parChunkTrials units per
// poll and flushes per chunk. Either way it runs every job, including
// those ExecJob.LocalOnly keeps in this process.
type LocalExecutor struct {
	// Workers overrides the pool size (0 defers to the job's hint, then
	// GOMAXPROCS).
	Workers int
}

// workerCount resolves the pool size for a job: explicit executor
// setting, then the job hint, then GOMAXPROCS, clamped to the remaining
// units so short tails don't spin idle goroutines.
func (e *LocalExecutor) workerCount(job *ExecJob) int {
	w := e.Workers
	if w <= 0 {
		w = job.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, job.Units-job.Start), 1)
}

// unitWorker is one goroutine's share of a job: the per-unit trial body
// of its kind with worker-local scratch and telemetry.
type unitWorker interface {
	// unit runs the 1-based trial unit u.
	unit(u int)
	// flush publishes the worker's telemetry through unit hi.
	flush(hi int)
	// finish runs once every worker has joined: it flushes what a
	// one-worker run has not yet published, folds the worker's payload
	// into the job state, and releases its scratch.
	finish(done int)
}

// ExecuteTrials implements TrialExecutor.
func (e *LocalExecutor) ExecuteTrials(job *ExecJob) (*ExecResult, error) {
	out := job.into
	if out == nil {
		var err error
		if out, err = NewExecState(job); err != nil {
			return nil, err
		}
	}
	if job.Start >= job.Units {
		out.Done = job.Units
		return out, nil
	}
	workers := e.workerCount(job)
	var newWorker func(w int) unitWorker
	switch job.Kind {
	case ExecOS:
		snap, view, err := osSnapshot(job)
		if err != nil {
			return nil, err
		}
		newWorker = func(w int) unitWorker { return newOSWorker(job, out, snap, view, w, workers == 1) }
	case ExecOptimized:
		thresh := edgeThresholds(job.Graph) // shared read-only by all workers
		newWorker = func(w int) unitWorker { return newOptimizedWorker(job, out, thresh, w, workers == 1) }
	case ExecKarpLuby:
		thresh := edgeThresholds(job.Graph)
		newWorker = func(w int) unitWorker { return newKLWorker(job, out, thresh, w) }
	}
	if workers > 1 {
		job.Probe.EnsureWorkers(workers)
	}
	ws := make([]unitWorker, workers)
	done, err := parLoop(job.Start, job.Units, workers, job.Interrupt, func(w int) func(lo, hi int) {
		uw := newWorker(w)
		ws[w] = uw
		if workers > 1 {
			job.Probe.LabelWorker(w)
		}
		return func(lo, hi int) {
			for u := lo; u <= hi; u++ {
				uw.unit(u)
			}
			if workers > 1 {
				// Chunks are always fully executed, so flushing per chunk
				// keeps the registry's counters an exact function of the
				// done-prefix — identical totals to a one-worker run.
				uw.flush(hi)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, uw := range ws {
		if uw != nil {
			uw.finish(done)
		}
	}
	out.Done = done
	return out, nil
}

// ErrWorkerPanic wraps a panic recovered inside an executor's worker
// goroutine. The panic does not crash the process: the first panicking
// worker records its value, the remaining workers drain, and the runner
// returns this error (no partial result — an abandoned chunk would break
// the completed-prefix invariant that partial results rely on). When the
// panic struck inside a claimed chunk, the wrapped text names that chunk's
// trial bounds, so a distributed lease reissue (or a local bisection) can
// name the poisoned range.
var ErrWorkerPanic = errors.New("core: worker panicked")

// parChunkTrials is the dispatch granularity of a multi-worker pool. A
// worker claims one chunk of consecutive trials at a time and always
// finishes a claimed chunk, so on cancellation the completed trials form
// an exact prefix 1..done — exactly the state a resume expects. Small
// enough that cancellation latency is a few chunk-lengths of work, large
// enough that the atomic claim is amortized away.
const parChunkTrials = 16

// parLoop runs trials start+1..end distributed over workers goroutines.
// newBody runs once on each worker's goroutine to set up worker-local
// scratch and returns the chunk function, which must execute trials
// lo..hi inclusive. Handing bodies a whole chunk (rather than one trial)
// lets them keep kernel state hot across the chunk and costs one indirect
// call per chunk instead of one per trial.
//
// One worker runs on the caller's goroutine, one trial per chunk, polling
// interrupt before every trial: exactly a sequential loop. More workers
// share chunked dispatch: a monotonic counter hands out chunks of
// parChunkTrials consecutive trials. Workers poll stop/interrupt only
// BETWEEN chunks and never abandon a claimed chunk, so every handed-out
// chunk is fully executed and the executed trials are exactly
// start+1..done for the returned done. A worker panic is recovered,
// cancels the siblings, and surfaces as an ErrWorkerPanic-wrapped error
// naming the claimed chunk's bounds; done is meaningless in that case
// because the panicking worker abandoned its chunk mid-flight.
func parLoop(start, end, workers int, interrupt func() bool, newBody func(w int) func(lo, hi int)) (done int, err error) {
	if workers == 1 {
		body := newBody(0)
		for t := start + 1; t <= end; t++ {
			if interrupt != nil && interrupt() {
				return t - 1, nil
			}
			body(t, t)
		}
		return end, nil
	}
	const chunk = parChunkTrials
	total := end - start
	nChunks := (total + chunk - 1) / chunk
	var next atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var panicMu sync.Mutex
	var panicErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The claimed chunk's bounds, for the panic report. curHi==0
			// means no chunk was claimed yet (trial bounds are 1-based), so
			// the panic came from newBody or the between-chunk bookkeeping.
			var curLo, curHi int
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicErr == nil {
						if curHi > 0 {
							panicErr = fmt.Errorf("%w: trials %d..%d: %v", ErrWorkerPanic, curLo, curHi, r)
						} else {
							panicErr = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
						}
					}
					panicMu.Unlock()
					halt()
				}
			}()
			body := newBody(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if interrupt != nil && interrupt() {
					halt()
					return
				}
				c := next.Add(1) - 1
				if c >= int64(nChunks) {
					return
				}
				lo := start + int(c)*chunk + 1
				hi := min(start+(int(c)+1)*chunk, end)
				curLo, curHi = lo, hi
				body(lo, hi)
			}
		}(w)
	}
	wg.Wait()
	if panicErr != nil {
		return 0, panicErr
	}
	handed := min(int(next.Load()), nChunks)
	return min(start+handed*chunk, end), nil
}

// osSnapshot returns the snapshot an ExecOS job's kernels scan, the
// graph's cached global snapshot, and for an anchored job the view that
// restricts them to the anchor's butterflies, dropped with the job.
func osSnapshot(job *ExecJob) (*edgeSnapshot, *anchoredView, error) {
	a := job.Anchor
	switch {
	case a.Kind == 0:
		return snapshotFor(job.Graph), nil, nil
	case a.Kind == AnchorEdge && (job.OS.KeepAllAngles || job.OS.DropA2):
		return nil, nil, fmt.Errorf("core: edge anchor %v does not support KeepAllAngles or DropA2", a)
	}
	v := newAnchoredView(job.Graph, a)
	return snapshotFor(job.Graph), v, nil
}

// osWorker runs ExecOS units: Ordering Sampling world trials on a pooled
// snapshot kernel. Each worker reuses one kernel for every trial it
// claims, so the steady-state per-trial cost is the kernel scan alone.
//
// Worker 0 tallies into the job state; the others keep private tallies
// that finish merges into it once the workers join. Unless it announces
// promotions, a worker credits the large top classes of its trials by
// endpoint pair (pairTally), every pairWindow of its trials and at
// finish: a claimed chunk always runs to its end, so the job state holds
// the exact completed prefix once every worker has finished. A
// one-worker run flushes the pair tally before it publishes the running
// leader, so every published leader count is exact.
type osWorker struct {
	job   *ExecJob
	out   *ExecResult
	root  *randx.RNG
	idx   *osIndex
	acc   *probAccumulator
	sMB   butterfly.MaxSet
	meter trialMeter
	// lead publishes the running leader estimate at flush cadence: a
	// one-worker run outside the preparing phase (whose tallies are
	// candidate hits, not the run's estimates).
	lead bool
	// promote announces each butterfly new to the tally as a promoted
	// candidate: a one-worker preparing phase under a probe, whose tally
	// holds every earlier trial and the resumed prefix.
	promote bool
}

func newOSWorker(job *ExecJob, out *ExecResult, snap *edgeSnapshot, view *anchoredView, w int, single bool) *osWorker {
	// Worker kernels come from the global snapshot's pool: across runs
	// over the same graph, global or anchored, the ~1MB per-kernel scratch
	// and a pool member's tally are reused instead of reallocated.
	x := &osWorker{job: job, out: out, root: randx.New(job.Seed), idx: snap.kernel(job.Graph, job.OS), acc: out.acc}
	x.idx.restrict(view)
	if w > 0 {
		x.acc = &x.idx.tally
		x.acc.reset()
	}
	n := snap.numEdges()
	if view != nil {
		n = view.n
	}
	x.meter = newTrialMeter(job.Probe, w, n, false)
	if single && job.Probe != nil {
		x.lead = job.Probe.Phase != telemetry.PhasePrep
		x.promote = !x.lead
	}
	x.idx.pairs.on = !x.promote
	return x
}

func (x *osWorker) unit(u int) {
	scanned := x.idx.runTrialSeeded(x.root, uint64(u), &x.sMB)
	hit := !x.sMB.Empty()
	switch {
	case hit && x.promote:
		x.creditPromoting(u)
	case hit:
		x.acc.addMaxSet(&x.sMB)
	}
	if x.idx.pairs.endTrial(x.acc) {
		hit = true
	}
	if x.meter.observe(u, scanned, hit) && x.lead {
		probeEstimate(x.job.Probe, 0, float64(x.acc.leadCount)/float64(u), u, x.acc.leadB, x.acc.leadW)
	}
}

// creditPromoting credits trial u's maximum set like addMaxSet, emitting
// a candidate promotion for each butterfly the tally had not seen.
func (x *osWorker) creditPromoting(u int) {
	p := x.job.Probe
	for _, b := range x.sMB.Set {
		if x.acc.credit(b, 1, x.sMB.W) {
			p.Add(0, telemetry.CounterCandidates, 1)
			p.Emit(telemetry.Event{
				Kind: telemetry.EventCandidatePromoted, Trial: u,
				B: probeButterfly(b), Weight: x.sMB.W,
			})
		}
	}
}

func (x *osWorker) flush(hi int) { x.meter.flush(hi) }

func (x *osWorker) finish(done int) {
	x.meter.flush(done)
	x.idx.pairs.flush(x.acc)
	if x.acc != x.out.acc {
		x.out.acc.merge(x.acc)
	}
	releaseKernel(x.idx)
}

// optimizedWorker runs ExecOptimized units: shared sampling trials of the
// optimized estimator with private lazy-sampling scratch. A one-worker
// run counts straight into the job state; a pool member keeps a private
// count vector, summed into the state when the workers join.
type optimizedWorker struct {
	job    *ExecJob
	out    *ExecResult
	c      *Candidates
	root   *randx.RNG
	rng    randx.RNG
	thresh []uint64
	stamp  []int32
	val    []bool
	cur    int32
	// relevant is the union of candidate edges, for the EagerSampling
	// ablation.
	relevant []bigraph.EdgeID
	counts   []int64
	meter    trialMeter
	// lead marks a one-worker run: it counts into the job state and
	// publishes the running leader at flush cadence.
	lead bool
}

func newOptimizedWorker(job *ExecJob, out *ExecResult, thresh []uint64, w int, single bool) *optimizedWorker {
	c := job.Cands
	numE := c.G.NumEdges()
	x := &optimizedWorker{
		job: job, out: out, c: c, root: randx.New(job.Seed), thresh: thresh,
		stamp: make([]int32, numE), val: make([]bool, numE),
		counts: out.CandCounts,
		meter:  newTrialMeter(job.Probe, w, len(c.List), true),
		lead:   single,
	}
	if !single {
		x.counts = make([]int64, len(c.List))
	}
	if job.Optimized.EagerSampling {
		seen := make(map[bigraph.EdgeID]bool)
		for _, cand := range c.List {
			for _, id := range cand.Edges {
				if !seen[id] {
					seen[id] = true
					x.relevant = append(x.relevant, id)
				}
			}
		}
	}
	return x
}

// unit runs one trial of Algorithm 5: candidates are visited in
// descending weight order, each candidate's four edges are sampled lazily
// (an edge is drawn at most once per trial no matter how many candidates
// contain it), the first existing candidate fixes w_max, candidates tied
// at w_max keep being collected, and the scan stops at the first
// candidate lighter than w_max. The trial also ends at its first existing
// candidate of the heaviest weight class: that class is priced in closed
// form (see ExecResult.Probs) and nothing lighter can be credited, so the
// lighter classes are scanned only in trials where none of it exists,
// with the same draws as a full scan.
func (x *optimizedWorker) unit(u int) {
	opt := &x.job.Optimized
	list, counts, top := x.c.List, x.counts, x.c.top
	stamp, val, thresh := x.stamp, x.val, x.thresh
	rng := &x.rng
	x.root.DeriveInto(uint64(u), rng)
	x.cur++
	cur := x.cur
	if opt.EagerSampling {
		for _, id := range x.relevant {
			stamp[id] = cur
			val[id] = rng.BernoulliThresholded(thresh[id])
		}
	}
	wMax := math.Inf(-1)
	examined := len(list)
	for k := range list { // line 4: B_k in weight order
		cand := &list[k]
		if cand.Weight < wMax { // line 5
			if opt.DisableEarlyBreak {
				continue
			}
			examined = k
			break // line 6
		}
		exists := true
		for _, id := range cand.Edges { // line 7: lazy sampling
			if stamp[id] != cur {
				stamp[id] = cur
				val[id] = rng.BernoulliThresholded(thresh[id])
			}
			if !val[id] {
				exists = false
				break
			}
		}
		if exists { // lines 8–10
			counts[k]++
			wMax = cand.Weight
			if k < top && !opt.DisableEarlyBreak {
				examined = k + 1
				break
			}
		}
	}
	if x.meter.observe(u, examined, !math.IsInf(wMax, -1)) && x.lead {
		probeOptimizedLeader(x.job.Probe, x.c, counts, u)
	}
}

func (x *optimizedWorker) flush(hi int) { x.meter.flush(hi) }

func (x *optimizedWorker) finish(done int) {
	x.meter.flush(done)
	if !x.lead { // a pool member's private vector
		for i, cnt := range x.counts {
			x.out.CandCounts[i] += cnt
		}
	}
}

// klWorker runs ExecKarpLuby units: unit u prices candidate u-1, writing
// its estimate straight into the job state's vectors (writes are
// per-index disjoint across workers).
type klWorker struct {
	job     *ExecJob
	out     *ExecResult
	root    *randx.RNG
	scratch *klScratch
	w       int
	lastT   time.Time
}

func newKLWorker(job *ExecJob, out *ExecResult, thresh []uint64, w int) *klWorker {
	x := &klWorker{job: job, out: out, root: randx.New(job.Seed), scratch: newKLScratch(job.Graph.NumEdges(), thresh), w: w}
	if job.Probe != nil {
		x.lastT = time.Now()
	}
	return x
}

func (x *klWorker) unit(u int) {
	i := u - 1
	p, n := klPrice(x.job.Cands, i, x.job.KL, x.root, x.scratch)
	k := i - x.out.Start
	x.out.CandProbs[k], x.out.CandTrials[k] = p, int64(n)
	probeKLCandidate(x.job.Probe, x.w, i, n, &x.lastT)
}

func (x *klWorker) flush(int)  {}
func (x *klWorker) finish(int) {}
