package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// defaultWorkerClient is the client used when a caller supplies none.
// It carries a bounded overall timeout as a last line of defense: a
// hung coordinator socket must never block a worker forever, even if
// the per-attempt transport timeout is misconfigured away.
var defaultWorkerClient = &http.Client{Timeout: 30 * time.Second}

// Worker executes leased ranges for a coordinator. It is stateless from
// the coordinator's point of view — everything it needs arrives in the
// JobSpec (graph by fetch-and-verify, candidate set by deterministic
// re-preparation from the run seed), so workers can join, die and
// rejoin at any point of a run without coordination.
//
// All coordinator exchanges go through a retrying Transport; when a
// coordinator the worker has already talked to becomes unreachable past
// the transport's budget, the worker parks in a reconnect loop for up
// to ReconnectMax instead of exiting, so a coordinator restart (crash
// recovery) or a healed partition resumes the run with the same fleet.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://host:port").
	Base string
	// Name identifies the worker in leases (default "host:pid").
	Name string
	// Client is the HTTP client (default: a client with a bounded
	// overall timeout).
	Client *http.Client
	// Pool sizes the local worker pool each lease runs on (0 =
	// GOMAXPROCS).
	Pool int
	// Transport, when non-nil, tunes the retrying exchange layer
	// (timeouts, attempt budget, backoff). Nil applies the defaults.
	Transport *Transport
	// ReconnectMax bounds how long the worker keeps trying to reach an
	// unreachable coordinator it had already exchanged with before
	// giving up and ending the run (default 30s; negative gives up on
	// the first exhausted exchange).
	ReconnectMax time.Duration
	// Reg, when non-nil, receives the worker's telemetry: lease-loop
	// errors by kind and reconnect counts.
	Reg *telemetry.Registry

	// testFaults, if non-nil, injects chaos for the fault-tolerance
	// tests; see workerFaults.
	testFaults *workerFaults

	connected bool
	parked    bool
	parkedAt  time.Time
	leases    int
	graphs    map[uint32]*workerGraph
}

// workerFaults is the injectable fault seam used by chaos tests.
type workerFaults struct {
	// dieAfterLeases, when > 0, makes Run return (simulating an abrupt
	// death: the lease is never completed) after that many leases have
	// been GRANTED — the fatal lease is abandoned mid-flight.
	dieAfterLeases int
	// interceptComplete, when non-nil, sees every LeaseComplete before
	// it is sent; returning false drops the message (the worker proceeds
	// as if it were sent).
	interceptComplete func(*LeaseComplete) bool
	// granted, when non-nil, sees every granted lease before the worker
	// executes it (and so before any graph fetch the lease triggers).
	granted func(*LeaseReply)
}

// workerGraph is one verified graph plus its derived candidate sets,
// cached across leases by graph fingerprint.
type workerGraph struct {
	g     *bigraph.Graph
	cands map[candKey]*core.Candidates
}

// candKey identifies a deterministic candidate preparation.
type candKey struct {
	prep  int
	seed  uint64
	flags uint8
}

// Run leases and executes ranges until ctx is cancelled or the
// coordinator stays away longer than ReconnectMax. A connection failure
// before the first successful exchange is retried indefinitely (the
// worker may start before the coordinator listens); after one, the
// worker parks in its reconnect loop — completions in hand are
// retransmitted verbatim once the coordinator returns, which is safe
// because the merge is idempotent by span. Only when the coordinator
// stays unreachable past ReconnectMax does Run conclude the run is over
// and return nil.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" {
		host, _ := os.Hostname()
		w.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if w.graphs == nil {
		w.graphs = make(map[uint32]*workerGraph)
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		rep, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.count(telemetry.CounterDistLeaseErrors)
			if !w.connected {
				// The coordinator may not be listening yet.
				if !w.pause(ctx, 100*time.Millisecond) {
					return nil
				}
				continue
			}
			if !errors.Is(err, ErrTransportExhausted) {
				return err // protocol error: retrying cannot fix it
			}
			if !w.park(ctx) {
				return nil // coordinator gone past ReconnectMax; run over
			}
			continue
		}
		w.arrived()
		switch rep.Status {
		case LeaseWait:
			wait := time.Duration(rep.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = 25 * time.Millisecond
			}
			if !w.pause(ctx, wait) {
				return nil
			}
		case LeaseGranted:
			w.leases++
			if f := w.testFaults; f != nil && f.dieAfterLeases > 0 && w.leases >= f.dieAfterLeases {
				return nil // chaos: die holding the lease
			}
			if f := w.testFaults; f != nil && f.granted != nil {
				f.granted(rep)
			}
			msg, err := w.execute(ctx, rep)
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				switch {
				case errors.Is(err, ErrTransportExhausted):
					// The graph fetch died with the coordinator: abandon
					// the lease (the TTL reissues it) and park.
					w.count(telemetry.CounterDistGraphErrors)
					if !w.park(ctx) {
						return nil
					}
					continue
				case jobGone(err):
					// The job was collected while this worker held its
					// lease: the run is over, so drop the lease and poll on.
					w.count(telemetry.CounterDistGraphErrors)
					continue
				}
				w.count(telemetry.CounterDistExecErrors)
				return fmt.Errorf("dist: worker executing lease %d (%d..%d): %w", rep.Lease, rep.Lo, rep.Hi, err)
			}
			if f := w.testFaults; f != nil && f.interceptComplete != nil && !f.interceptComplete(msg) {
				continue // chaos: complete dropped in flight
			}
			if err := w.deliver(ctx, msg); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: coordinator replied with unknown status %q", rep.Status)
		}
	}
}

// deliver retransmits one completion until it is acknowledged, the
// reconnect window closes, or ctx ends. Retransmission is safe: the
// coordinator's merge is keyed by span, so a completion whose first
// acknowledgement was lost in flight is simply re-acknowledged with
// Accepted=false. Returning nil without an acknowledgement means the
// coordinator is gone and the run is over.
func (w *Worker) deliver(ctx context.Context, msg *LeaseComplete) error {
	for {
		err := w.sendComplete(ctx, msg)
		if err == nil {
			w.arrived()
			return nil
		}
		if ctx.Err() != nil {
			return nil
		}
		w.count(telemetry.CounterDistCompleteErrors)
		if !errors.Is(err, ErrTransportExhausted) {
			return err
		}
		if !w.park(ctx) {
			return nil
		}
	}
}

// park records an unreachable-coordinator beat: it starts (or extends)
// the current parking spell and sleeps one reconnect interval. It
// returns false when the spell has outlived ReconnectMax or ctx ended —
// the worker should stop trying.
func (w *Worker) park(ctx context.Context) bool {
	now := time.Now()
	if !w.parked {
		w.parked = true
		w.parkedAt = now
	}
	maxWait := w.reconnectMax()
	if maxWait <= 0 || now.Sub(w.parkedAt) >= maxWait {
		return false
	}
	return w.pause(ctx, 500*time.Millisecond)
}

// arrived records a successful exchange, ending any parking spell.
func (w *Worker) arrived() {
	if w.parked {
		w.parked = false
		w.count(telemetry.CounterDistReconnects)
	}
	w.connected = true
}

func (w *Worker) reconnectMax() time.Duration {
	if w.ReconnectMax != 0 {
		return w.ReconnectMax
	}
	return 30 * time.Second
}

// pause sleeps d, returning false if ctx ended first.
func (w *Worker) pause(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// count bumps one worker telemetry counter, if a registry is attached.
func (w *Worker) count(c telemetry.Counter) {
	if w.Reg != nil {
		w.Reg.Add(0, c, 1)
	}
}

// lease requests a range.
func (w *Worker) lease(ctx context.Context) (*LeaseReply, error) {
	var rep LeaseReply
	if err := w.transport().postJSON(ctx, "lease", w.Base+"/dist/v1/lease", &LeaseRequest{V: Version, Worker: w.Name}, &rep); err != nil {
		return nil, err
	}
	if rep.V != Version {
		return nil, fmt.Errorf("%w: coordinator speaks v%d, worker v%d", ErrVersionSkew, rep.V, Version)
	}
	return &rep, nil
}

// execute rebuilds the job of one leased range from its spec and runs
// the range through executeSpan.
func (w *Worker) execute(ctx context.Context, rep *LeaseReply) (*LeaseComplete, error) {
	spec := rep.Job
	if spec == nil {
		return nil, fmt.Errorf("%w: lease %d granted without a job spec", ErrBadPayload, rep.Lease)
	}
	if spec.V != Version {
		return nil, fmt.Errorf("%w: job spec v%d", ErrVersionSkew, spec.V)
	}
	wg, err := w.graph(ctx, spec)
	if err != nil {
		return nil, err
	}
	kind := core.ExecKind(spec.Kind)
	osOpt := core.OSOptions{
		DisableEdgePrune: spec.DisableEdgePrune,
		KeepAllAngles:    spec.KeepAllAngles,
		DropA2:           spec.DropA2,
	}
	var cands *core.Candidates
	if kind != core.ExecOS {
		cands, err = w.candidates(wg, spec, osOpt)
		if err != nil {
			return nil, err
		}
	}
	msg, err := executeSpan(&core.ExecJob{
		Kind:  kind,
		Graph: wg.g,
		Cands: cands,
		Seed:  spec.PhaseSeed,
		OS:    osOpt,
		KL: core.KLOptions{
			BaseTrials: spec.KLBaseTrials,
			Mu:         spec.KLMu,
			MaxTrials:  spec.KLMaxTrials,
		},
		Spec: core.ExecSpec{Method: spec.Method},
	}, w.Pool, rep.Lo, rep.Hi)
	if err != nil {
		return nil, err
	}
	msg.Worker, msg.Job, msg.Lease = w.Name, spec.Job, rep.Lease
	return msg, nil
}

// graph returns the verified graph for a spec, fetching it once per
// fingerprint. A torn response body (the fetch died mid-stream) is
// retried by the transport like any other transient fault.
func (w *Worker) graph(ctx context.Context, spec *JobSpec) (*workerGraph, error) {
	if wg, ok := w.graphs[spec.GraphCRC]; ok {
		return wg, nil
	}
	var g *bigraph.Graph
	url := fmt.Sprintf("%s/dist/v1/graph?job=%d", w.Base, spec.Job)
	err := w.transport().get(ctx, "graph", url, func(resp *http.Response) error {
		decoded, err := bigraph.ReadBinary(resp.Body)
		if err != nil {
			return fmt.Errorf("dist: decoding graph for job %d: %w", spec.Job, err)
		}
		g = decoded
		return nil
	})
	if err != nil {
		return nil, err
	}
	if crc := g.Checksum(); crc != spec.GraphCRC {
		return nil, fmt.Errorf("dist: graph checksum %08x does not match job spec %08x", crc, spec.GraphCRC)
	}
	wg := &workerGraph{g: g, cands: make(map[candKey]*core.Candidates)}
	w.graphs[spec.GraphCRC] = wg
	return wg, nil
}

// jobGone reports whether err is the coordinator's 404 to a graph fetch:
// the job was collected (it finished or was interrupted) after the lease
// was granted. The coordinator likewise acknowledges and drops late
// completions of a collected job.
func jobGone(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.op == "graph" && se.code == http.StatusNotFound
}

// candidates rebuilds (or returns the cached) candidate set for a spec.
// Re-preparation is deterministic in (run seed, prep trials, kernel
// flags), so every worker derives the exact candidate list the
// coordinator's own preparing phase produced.
func (w *Worker) candidates(wg *workerGraph, spec *JobSpec, osOpt core.OSOptions) (*core.Candidates, error) {
	var flags uint8
	if spec.DisableEdgePrune {
		flags |= 1
	}
	if spec.KeepAllAngles {
		flags |= 2
	}
	if spec.DropA2 {
		flags |= 4
	}
	key := candKey{prep: spec.PrepTrials, seed: spec.RunSeed, flags: flags}
	if c, ok := wg.cands[key]; ok {
		return c, nil
	}
	c, err := core.PrepareCandidates(wg.g, spec.PrepTrials, spec.RunSeed, osOpt)
	if err != nil {
		return nil, fmt.Errorf("dist: re-preparing candidates: %w", err)
	}
	wg.cands[key] = c
	return c, nil
}

// sendComplete posts a completion and interprets the acknowledgement.
func (w *Worker) sendComplete(ctx context.Context, msg *LeaseComplete) error {
	var rep CompleteReply
	// Accepted=false (duplicate or vanished job) is a normal outcome.
	return w.transport().postJSON(ctx, "complete", w.Base+"/dist/v1/complete", msg, &rep)
}

// client returns the base HTTP client, always with a bounded timeout.
func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultWorkerClient
}

// transport returns the worker's exchange layer, binding the default
// transport to the worker's client on first use. The default transport
// seeds its jitter from the worker's name, so a fleet of default workers
// does not retry in lockstep.
func (w *Worker) transport() *Transport {
	if w.Transport == nil {
		h := fnv.New64a()
		h.Write([]byte(w.Name))
		w.Transport = &Transport{Seed: h.Sum64()}
	}
	if w.Transport.Client == nil {
		w.Transport.Client = w.client()
	}
	return w.Transport
}
