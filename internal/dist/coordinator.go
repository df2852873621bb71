package dist

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Coordinator is the control plane of a distributed run: it owns the
// lease book of every registered job, grants ranges to workers, accepts
// (idempotently) their completions, and merges accepted ranges in prefix
// order. It executes no trials itself — a registered job makes no
// progress until at least one worker joins.
//
// Construct with NewCoordinator and mount Register's routes (or
// Handler()) on an HTTP server. All exported methods and the HTTP
// handlers are safe for concurrent use.
type Coordinator struct {
	// LeaseUnits is the fixed range width granted per lease (default
	// 256). Smaller leases spread short jobs across more workers and
	// shrink the recompute-on-death window; larger leases amortize the
	// per-lease candidate/kernel setup.
	LeaseUnits int
	// LeaseTTL is how long a granted lease may stay uncompleted before
	// the range is reissued to another worker (default 10s).
	LeaseTTL time.Duration
	// MaxGrants caps how many workers may hold the SAME range
	// concurrently via straggler stealing (default 2: the original
	// holder plus one thief).
	MaxGrants int
	// WaitHint is the poll delay handed to workers when nothing is
	// grantable (default 25ms).
	WaitHint time.Duration
	// Journal, when non-nil, write-ahead persists every job's lease
	// grants and accepted span completions; a restarted coordinator
	// registering the identical job replays the records and resumes the
	// run exactly where its predecessor crashed. See Journal.
	Journal *Journal

	// now is the clock, injectable by fault tests.
	now func() time.Time

	// lastWorker is the unixnano of the most recent worker HTTP
	// exchange — fleet liveness for the executor's degraded-mode
	// fallback. Only the HTTP handlers touch it: in-process fallback
	// traffic must not count as fleet contact.
	lastWorker atomic.Int64

	mu        sync.Mutex
	jobs      map[uint64]*distJob
	order     []uint64 // active job ids, registration order (grant fairness)
	nextJob   uint64
	nextLease uint64
}

// NewCoordinator returns a coordinator with default tuning.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		LeaseUnits: 256,
		LeaseTTL:   10 * time.Second,
		MaxGrants:  2,
		WaitHint:   25 * time.Millisecond,
		now:        time.Now,
		jobs:       make(map[uint64]*distJob),
	}
}

// span is one leased range of absolute 1-based trial units, inclusive.
type span struct{ lo, hi int }

// lease is one outstanding grant of a span to a worker.
type lease struct {
	id       uint64
	span     span
	worker   string
	deadline time.Time
}

// pendingRange is an accepted completion waiting for the merge prefix
// to reach it.
type pendingRange struct {
	span     span
	payload  core.Payload
	counters Counters
}

// distJob is the lease book and merge state of one registered job.
type distJob struct {
	id    uint64
	spec  JobSpec
	job   *core.ExecJob
	cands []byte // encoded candidate set served to workers (nil for ExecOS)

	nextLo    int               // next fresh range start
	freed     []span            // expired ranges awaiting regrant, sorted by lo
	leases    map[uint64]*lease // outstanding grants
	completed map[int]int       // accepted ranges: lo → hi
	pending   map[int]*pendingRange

	// prefix is the merged prefix in absolute units: trials
	// spec.Start+1..prefix are folded into state, and their counters are
	// flushed to the job's probe. state is built and advanced by core —
	// the same fold a local run's ranges go through — so it is, at every
	// instant, bit-identical to a local run of exactly that range.
	prefix int
	state  *core.ExecResult

	draining bool          // frontier frozen: no fresh grants, in-flight work may still land
	halted   bool          // no further grants (interrupted or collected)
	done     chan struct{} // closed when prefix == spec.Units

	// Journal bookkeeping (zero unless the coordinator journals).
	jdir    string       // this job's journal directory
	granted map[int]bool // spans with a persisted grant record, by lo
}

// register installs a job and returns its id and completion signal.
func (c *Coordinator) register(job *core.ExecJob) (uint64, chan struct{}, error) {
	if err := job.LocalOnly(); err != nil {
		return 0, nil, fmt.Errorf("dist: workers cannot reproduce the job: %w", err)
	}
	state, err := core.NewExecState(job)
	if err != nil {
		return 0, nil, fmt.Errorf("dist: %w", err)
	}
	var cands bytes.Buffer
	var candCRC uint32
	if job.Kind != core.ExecOS {
		if err := job.Cands.Encode(&cands); err != nil {
			return 0, nil, fmt.Errorf("dist: encoding candidates: %w", err)
		}
		candCRC = crc32.ChecksumIEEE(cands.Bytes())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob++
	id := c.nextJob
	j := &distJob{
		id:  id,
		job: job,
		spec: JobSpec{
			V:            Version,
			Job:          id,
			Kind:         uint8(job.Kind),
			PhaseSeed:    job.Seed,
			Units:        job.Units,
			Start:        job.Start,
			KLBaseTrials: job.KL.BaseTrials,
			KLMu:         job.KL.Mu,
			GraphCRC:     job.Graph.Checksum(),
			CandCRC:      candCRC,
			LeaseUnits:   c.leaseUnits(),
		},
		cands:     cands.Bytes(),
		nextLo:    job.Start + 1,
		leases:    make(map[uint64]*lease),
		completed: make(map[int]int),
		pending:   make(map[int]*pendingRange),
		prefix:    job.Start,
		state:     state,
		done:      make(chan struct{}),
	}
	if c.Journal != nil {
		// Adopt any journal a crashed predecessor left for this exact
		// identity before the job is published: the merged prefix,
		// probe counters and grant frontier come back, and the crashed
		// epoch's uncompleted spans queue for immediate reissue.
		if err := c.adoptLocked(j); err != nil {
			return 0, nil, err
		}
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	return id, j.done, nil
}

// collect returns a job's merged state, units Start+1..prefix, and
// removes the job from the book. Late completions of removed jobs are
// acknowledged and dropped.
func (c *Coordinator) collect(id uint64) (*core.ExecResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("dist: job %d is not registered", id)
	}
	j.halted = true
	delete(c.jobs, id)
	for i, v := range c.order {
		if v == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	if c.Journal != nil {
		c.Journal.discard(j.jdir)
	}
	return j.state, nil
}

// drain freezes a job's fresh-range frontier. An interrupted executor
// calls this before collecting so no NEW work is granted, while expired
// ranges can still be reissued and outstanding ranges stolen: work a
// worker has already claimed is given the chance to land and merge,
// mirroring the local pool's contract that a claimed chunk is never
// abandoned. Without it, any interrupt cadence shorter than one lease's
// execution time (e.g. a daemon's checkpoint slices) would discard
// every in-flight lease and the run would livelock at zero progress.
func (c *Coordinator) drain(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobs[id]; j != nil {
		j.draining = true
	}
}

// settled reports whether a draining job has no in-flight work left to
// wait for: every granted lease has been settled by a completion and no
// expired span is awaiting regrant. A collected or never-registered id
// is trivially settled.
func (c *Coordinator) settled(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return true
	}
	c.expireLocked(j, c.now())
	return len(j.leases) == 0 && len(j.freed) == 0
}

func (c *Coordinator) leaseUnits() int {
	if c.LeaseUnits > 0 {
		return c.LeaseUnits
	}
	return 256
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 10 * time.Second
}

func (c *Coordinator) maxGrants() int {
	if c.MaxGrants > 0 {
		return c.MaxGrants
	}
	return 2
}

func (c *Coordinator) waitHint() time.Duration {
	if c.WaitHint > 0 {
		return c.WaitHint
	}
	return 25 * time.Millisecond
}

// grant picks a range for a worker: first job in registration order
// with grantable work. Priority inside a job: expired (freed) ranges,
// then fresh ranges, then straggler stealing (duplicate grant of an
// outstanding range, capped at MaxGrants holders).
func (c *Coordinator) grant(worker string) *LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, id := range c.order {
		if rep, ok := c.grantFromLocked(c.jobs[id], worker, now); ok {
			return rep
		}
	}
	return &LeaseReply{V: Version, Status: LeaseWait, WaitMs: int(c.waitHint() / time.Millisecond)}
}

// grantJob is grant restricted to a single job: the executor's
// in-process fallback worker leases through it so it can never steal
// another job's spans from the fleet.
func (c *Coordinator) grantJob(worker string, id uint64) *LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep, ok := c.grantFromLocked(c.jobs[id], worker, c.now()); ok {
		return rep
	}
	return &LeaseReply{V: Version, Status: LeaseWait, WaitMs: int(c.waitHint() / time.Millisecond)}
}

// grantFromLocked tries to lease one span of j to worker.
func (c *Coordinator) grantFromLocked(j *distJob, worker string, now time.Time) (*LeaseReply, bool) {
	if j == nil || j.halted {
		return nil, false
	}
	c.expireLocked(j, now)
	sp, ok := c.pickLocked(j)
	if !ok {
		return nil, false
	}
	c.nextLease++
	l := &lease{id: c.nextLease, span: sp, worker: worker, deadline: now.Add(c.leaseTTL())}
	j.leases[l.id] = l
	c.journalGrantLocked(j, sp)
	spec := j.spec
	return &LeaseReply{V: Version, Status: LeaseGranted, Job: &spec, Lease: l.id, Lo: sp.lo, Hi: sp.hi}, true
}

// prefix reports a job's merged prefix (0 once collected or unknown).
func (c *Coordinator) prefix(id uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j := c.jobs[id]; j != nil {
		return j.prefix
	}
	return 0
}

// expireLocked reissues dead workers' ranges: every lease past its
// deadline is dropped and, unless the range was completed by another
// holder meanwhile, its span joins the freed list for regrant.
func (c *Coordinator) expireLocked(j *distJob, now time.Time) {
	for id, l := range j.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(j.leases, id)
		if _, done := j.completed[l.span.lo]; done {
			continue
		}
		if !j.spanOutstandingLocked(l.span) && !j.spanFreed(l.span) {
			j.freed = append(j.freed, l.span)
			sort.Slice(j.freed, func(x, y int) bool { return j.freed[x].lo < j.freed[y].lo })
		}
	}
}

func (j *distJob) spanOutstandingLocked(sp span) bool {
	for _, l := range j.leases {
		if l.span == sp {
			return true
		}
	}
	return false
}

func (j *distJob) spanFreed(sp span) bool {
	for _, f := range j.freed {
		if f == sp {
			return true
		}
	}
	return false
}

// pickLocked selects the next span to grant for a job.
func (c *Coordinator) pickLocked(j *distJob) (span, bool) {
	// Freed (expired) ranges first — they gate the merge prefix.
	if len(j.freed) > 0 {
		sp := j.freed[0]
		j.freed = j.freed[1:]
		return sp, true
	}
	// Fresh ranges next — unless the job is draining, in which case the
	// frontier is frozen so outstanding leases can land and be merged
	// before the interrupted executor collects.
	if !j.draining && j.nextLo <= j.spec.Units {
		hi := j.nextLo + j.spec.LeaseUnits - 1
		if hi > j.spec.Units {
			hi = j.spec.Units
		}
		sp := span{lo: j.nextLo, hi: hi}
		j.nextLo = hi + 1
		return sp, true
	}
	// Straggler stealing: regrant the outstanding range closest to the
	// prefix (it gates the merge) with the fewest current holders.
	grants := make(map[span]int)
	for _, l := range j.leases {
		grants[l.span]++
	}
	best, found := span{}, false
	for sp, n := range grants {
		if n >= c.maxGrants() {
			continue
		}
		if _, done := j.completed[sp.lo]; done {
			continue
		}
		if !found || sp.lo < best.lo {
			best, found = sp, true
		}
	}
	return best, found
}

// complete applies one LeaseComplete. Duplicate completions of an
// already-accepted range (and completions for vanished jobs) are
// acknowledged with Accepted=false — the merge is keyed by range, so
// dropped, duplicated, or reordered messages cannot corrupt it.
func (c *Coordinator) complete(msg *LeaseComplete) (*CompleteReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[msg.Job]
	if !ok {
		// The job was collected (interrupt) or never existed: the range's
		// work is obsolete, not wrong. Tell the worker to move on.
		return &CompleteReply{V: Version, Accepted: false, JobDone: true}, nil
	}
	p, err := j.check(msg)
	if err != nil {
		return nil, err
	}
	if _, dup := j.completed[msg.Lo]; dup {
		// The lease(s) covering this span are settled regardless of
		// which holder reported first.
		for id, l := range j.leases {
			if l.span.lo == msg.Lo {
				delete(j.leases, id)
			}
		}
		return &CompleteReply{V: Version, Accepted: false, JobDone: j.prefix == j.spec.Units}, nil
	}
	// Write-ahead: the journal record must land before any state
	// mutation (including lease settlement — a failed write leaves the
	// lease intact so its TTL can still reissue the span). The handler
	// turns a journal failure into a 500 the worker's transport retries.
	if err := c.journalCompleteLocked(j, msg); err != nil {
		return nil, err
	}
	for id, l := range j.leases {
		if l.span.lo == msg.Lo {
			delete(j.leases, id)
		}
	}
	j.completed[msg.Lo] = msg.Hi
	j.pending[msg.Lo] = &pendingRange{span: span{msg.Lo, msg.Hi}, payload: p, counters: msg.Counters}
	j.advanceLocked()
	done := j.prefix == j.spec.Units
	if done && !j.halted {
		j.halted = true
		close(j.done)
	}
	return &CompleteReply{V: Version, Accepted: true, JobDone: done}, nil
}

// check validates a completion against the job and returns its decoded
// payload. Its range must match the fixed lease arithmetic: ranges are
// aligned to Start on LeaseUnits boundaries and clipped at Units, so
// exactly one shape is legal per lo. Its payload must decode, be of the
// job's kind and pass core's payload check as a span.
func (j *distJob) check(msg *LeaseComplete) (core.Payload, error) {
	lo, hi, lu := msg.Lo, msg.Hi, j.spec.LeaseUnits
	if lo < j.spec.Start+1 || hi > j.spec.Units || hi < lo {
		return core.Payload{}, fmt.Errorf("%w: %d..%d outside %d..%d", ErrBadRange, lo, hi, j.spec.Start+1, j.spec.Units)
	}
	if (lo-j.spec.Start-1)%lu != 0 {
		return core.Payload{}, fmt.Errorf("%w: %d..%d not aligned to lease width %d", ErrBadRange, lo, hi, lu)
	}
	want := lo + lu - 1
	if want > j.spec.Units {
		want = j.spec.Units
	}
	if hi != want {
		return core.Payload{}, fmt.Errorf("%w: %d..%d does not match issued range %d..%d", ErrBadRange, lo, hi, lo, want)
	}
	cands := -1
	if j.job.Kind == core.ExecOptimized {
		cands = j.job.Cands.Len()
	}
	return msg.payload(j.job.Kind, cands)
}

// advanceLocked merges pending ranges while they extend the prefix.
// Counters flush to the job's probe here — at merge time, not arrival
// time — so the probe's totals are always an exact function of the
// merged prefix, mirroring the local runners' chunk-flush invariant.
func (j *distJob) advanceLocked() {
	for {
		pr, ok := j.pending[j.prefix+1]
		if !ok {
			return
		}
		delete(j.pending, j.prefix+1)
		j.state.Fold(j.job.Kind, &core.ExecResult{Start: pr.span.lo - 1, Done: pr.span.hi, Payload: pr.payload})
		p := j.job.Probe
		ctr := pr.counters
		p.Add(0, telemetry.CounterTrials, ctr.Trials)
		p.Add(0, telemetry.CounterTrialHits, ctr.TrialHits)
		p.Add(0, telemetry.CounterEdgesScanned, ctr.EdgesScanned)
		p.Add(0, telemetry.CounterEdgesPruned, ctr.EdgesPruned)
		p.Add(0, telemetry.CounterCandScanned, ctr.CandScanned)
		p.Add(0, telemetry.CounterCandPruned, ctr.CandPruned)
		j.prefix = pr.span.hi
	}
}

// Register mounts the coordinator's protocol routes on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/v1/lease", c.handleLease)
	mux.HandleFunc("POST /dist/v1/complete", c.handleComplete)
	// A graph is encoded per request, straight from the job: workers cache
	// it by GraphCRC, and refetch one whose stream broke off.
	mux.HandleFunc("GET /dist/v1/graph", c.serveJob(func(w io.Writer, j *distJob) bool {
		bigraph.WriteBinary(w, j.job.Graph)
		return true
	}))
	mux.HandleFunc("GET /dist/v1/candidates", c.serveJob(func(w io.Writer, j *distJob) bool {
		if len(j.cands) == 0 {
			return false
		}
		w.Write(j.cands)
		return true
	}))
}

// Handler returns a standalone handler serving the protocol routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// hasLiveLease reports whether the job still has an outstanding lease
// inside its TTL. The degraded-mode fallback uses it as the liveness
// signal for workers that are mid-span and therefore off the wire.
func (c *Coordinator) hasLiveLease(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return false
	}
	now := c.now()
	for _, l := range j.leases {
		if now.Before(l.deadline) {
			return true
		}
	}
	return false
}

// touchWorker records fleet contact; see lastWorker.
func (c *Coordinator) touchWorker() { c.lastWorker.Store(time.Now().UnixNano()) }

// lastWorkerContact reports the most recent worker HTTP exchange (zero
// time if no worker has ever connected).
func (c *Coordinator) lastWorkerContact() time.Time {
	ns := c.lastWorker.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	c.touchWorker()
	var req LeaseRequest
	if err := readMessage(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.V != Version {
		http.Error(w, fmt.Sprintf("%v: got v%d, want v%d", ErrVersionSkew, req.V, Version), http.StatusBadRequest)
		return
	}
	writeJSON(w, c.grant(req.Worker))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	c.touchWorker()
	data, err := readAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	msg, err := DecodeLeaseComplete(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep, err := c.complete(msg)
	if err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, ErrBadRange) && !errors.Is(err, ErrBadPayload) && !errors.Is(err, ErrVersionSkew) {
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, rep)
}

// serveJob returns the handler that writes a job input with send, outside
// the coordinator's lock: a job's inputs do not change once registered.
// A collected job, or one send reports to have no such input, is a 404.
func (c *Coordinator) serveJob(send func(io.Writer, *distJob) bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.touchWorker()
		id, err := strconv.ParseUint(r.URL.Query().Get("job"), 10, 64)
		if err != nil {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		j := c.jobs[id]
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		if j == nil || !send(w, j) {
			http.Error(w, "no such job", http.StatusNotFound)
		}
	}
}
