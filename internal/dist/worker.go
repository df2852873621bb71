package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"net/http"
	"os"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/cache"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// defaultWorkerClient is the client used when a caller supplies none.
// It carries a bounded overall timeout as a last line of defense: a
// hung coordinator socket must never block a worker forever, even if
// the per-attempt transport timeout is misconfigured away.
var defaultWorkerClient = &http.Client{Timeout: 30 * time.Second}

// Worker executes leased ranges for a coordinator. It is stateless from
// the coordinator's point of view — everything it needs arrives with the
// JobSpec (the graph and the candidate set are fetched from the
// coordinator and verified against the spec's checksums), so workers can
// join, die and rejoin at any point of a run without coordination.
//
// All coordinator exchanges go through a retrying Transport; when the
// coordinator is unreachable past the transport's budget, the worker
// parks in a reconnect loop for up to ReconnectMax instead of exiting, so
// a coordinator restart (crash recovery) or a healed partition resumes
// the run with the same fleet. The same bound holds before the first
// exchange, so a worker whose coordinator is not up yet waits for it,
// and one whose coordinator finished before its first poll exits.
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
	// unreachable coordinator, whether it has not reached it yet or has
	// lost it, before giving up and ending the run (default 30s;
	// negative gives up on the first failed exchange).
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
	graphs    *cache.Cache[uint32, *bigraph.Graph]   // by GraphCRC
	cands     *cache.Cache[uint32, *core.Candidates] // by CandCRC, each on a graph in graphs
}

// maxWorkerCache bounds the graphs and the candidate sets a worker keeps
// across leases, so a long-lived worker holds only those of recent jobs:
// a query's sampling phase is one job, so jobs that interleave are few.
const maxWorkerCache = 4

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

// Run leases and executes ranges until ctx is cancelled or the
// coordinator stays away longer than ReconnectMax. Any failure before
// the first successful exchange is retried every 100ms (the worker may
// start before the coordinator listens); a transport failure after one
// parks the worker in its reconnect loop — completions in hand are
// retransmitted verbatim once the coordinator returns, which is safe
// because the merge is idempotent by span. Both waits count against
// ReconnectMax: when the coordinator stays unreachable past it, Run
// concludes the run is over (or was over before the worker's first
// poll) and returns nil.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" {
		host, _ := os.Hostname()
		w.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if w.graphs == nil {
		w.cands = cache.New[uint32, *core.Candidates](maxWorkerCache, nil)
		w.graphs = cache.New(maxWorkerCache, func(_ uint32, old *bigraph.Graph) {
			// A candidate set holds its graph: drop those of the evicted one.
			w.cands.DeleteFunc(func(_ uint32, c *core.Candidates) bool { return c.G == old })
		})
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
				// The coordinator may not be listening yet, or may have
				// finished before this first poll.
				if !w.park(ctx) {
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
					// A graph or candidate-set fetch died with the
					// coordinator: abandon the lease (the TTL reissues it)
					// and park.
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
// the current parking spell and sleeps one reconnect interval, 100ms
// before the first successful exchange and 500ms after. It returns false
// when the spell has outlived ReconnectMax or ctx ended — the worker
// should stop trying.
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
	if !w.connected {
		return w.pause(ctx, 100*time.Millisecond)
	}
	return w.pause(ctx, 500*time.Millisecond)
}

// arrived records a successful exchange, ending any parking spell; a
// spell after an earlier exchange counts as a reconnect.
func (w *Worker) arrived() {
	if w.parked && w.connected {
		w.count(telemetry.CounterDistReconnects)
	}
	w.parked = false
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
	// Each graph is fetched once per fingerprint, and each candidate set
	// once per CandCRC, while the worker's caches hold them.
	g, err := w.graphs.Get(spec.GraphCRC, func() (*bigraph.Graph, error) { return w.fetchGraph(ctx, spec) }, nil)
	if err != nil {
		return nil, err
	}
	kind := core.ExecKind(spec.Kind)
	var cands *core.Candidates
	if kind != core.ExecOS {
		cands, err = w.cands.Get(spec.CandCRC, func() (*core.Candidates, error) { return w.fetchCandidates(ctx, spec, g) }, nil)
		if err != nil {
			return nil, err
		}
	}
	msg, err := executeSpan(&core.ExecJob{
		Kind:  kind,
		Graph: g,
		Cands: cands,
		Seed:  spec.PhaseSeed,
		KL:    core.KLOptions{BaseTrials: spec.KLBaseTrials, Mu: spec.KLMu},
	}, w.Pool, rep.Lo, rep.Hi)
	if err != nil {
		return nil, err
	}
	msg.Worker, msg.Job, msg.Lease = w.Name, spec.Job, rep.Lease
	return msg, nil
}

// fetchGraph fetches the graph of a spec and verifies it. A torn
// response body (the fetch died mid-stream) is retried by the transport
// like any other transient fault.
func (w *Worker) fetchGraph(ctx context.Context, spec *JobSpec) (*bigraph.Graph, error) {
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
	return g, nil
}

// jobGone reports whether err is the coordinator's 404 to a graph or
// candidate-set fetch: the job was collected (it finished or was
// interrupted) after the lease was granted. The coordinator likewise
// acknowledges and drops late completions of a collected job.
func jobGone(err error) bool {
	var se *statusError
	return errors.As(err, &se) && (se.op == "graph" || se.op == "candidates") && se.code == http.StatusNotFound
}

// fetchCandidates fetches the candidate set of an estimator job on
// graph g and verifies it.
func (w *Worker) fetchCandidates(ctx context.Context, spec *JobSpec, g *bigraph.Graph) (*core.Candidates, error) {
	var data []byte
	url := fmt.Sprintf("%s/dist/v1/candidates?job=%d", w.Base, spec.Job)
	err := w.transport().get(ctx, "candidates", url, func(resp *http.Response) (err error) {
		data, err = readAll(resp.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	if crc := crc32.ChecksumIEEE(data); crc != spec.CandCRC {
		return nil, fmt.Errorf("dist: candidate set checksum %08x does not match job spec %08x", crc, spec.CandCRC)
	}
	c, err := core.DecodeCandidates(g, bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("dist: decoding candidates for job %d: %w", spec.Job, err)
	}
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
