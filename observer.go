package mpmb

import (
	"io"
	"net/http"

	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Event is one typed record on the observability stream: trial batches,
// candidate promotions, audit misses, supervisor escalations, checkpoint
// I/O, and running-estimate updates. Events marshal to JSON (the CLI's
// -journal flag writes one per line).
type Event = telemetry.Event

// EventKind identifies the type of an Event.
type EventKind = telemetry.EventKind

// The event kinds an Observer's OnEvent callback can receive.
const (
	// EventTrialDone reports a batch of completed sampling trials: Trial
	// is the last completed trial index, N the batch size.
	EventTrialDone = telemetry.EventTrialDone
	// EventCandidatePromoted reports a butterfly entering the candidate
	// set C_MB during the OLS preparing phase.
	EventCandidatePromoted = telemetry.EventCandidatePromoted
	// EventAuditMiss reports a maximum butterfly a supervisor coverage
	// audit found missing from C_MB (Lemma VI.5 coverage).
	EventAuditMiss = telemetry.EventAuditMiss
	// EventEscalation reports a supervisor method/prep transition.
	EventEscalation = telemetry.EventEscalation
	// EventCheckpointSaved reports a successful checkpoint save.
	EventCheckpointSaved = telemetry.EventCheckpointSaved
	// EventCheckpointRetried reports a retried checkpoint save/load
	// attempt.
	EventCheckpointRetried = telemetry.EventCheckpointRetried
	// EventEstimateUpdated reports the running leading estimate and its
	// normal-approximation half-width at 99% confidence.
	EventEstimateUpdated = telemetry.EventEstimateUpdated
)

// Metrics is a point-in-time snapshot of a run's counters, gauges, and
// the per-trial latency histogram. See Observer.Metrics and
// Result.Metrics.
type Metrics = telemetry.Metrics

// ObserverConfig configures NewObserver. The zero value is valid:
// metrics only, no event stream.
type ObserverConfig struct {
	// OnEvent, if non-nil, receives the run's event stream from a
	// dedicated goroutine. Delivery is best-effort through a bounded
	// ring: a callback slower than the event rate causes events to be
	// dropped (counted in Metrics.EventsDropped), never stalls sampling.
	// The callback must not retain the Event past its return if it
	// mutates it; copying the value is always safe.
	OnEvent func(Event)
	// EventBuffer is the ring capacity between the engine and OnEvent.
	// 0 selects a default (1024).
	EventBuffer int
}

// Observer collects run telemetry: attach one via Options.Observer and
// every search entry point (Search, SearchContext and the Searcher
// methods) instruments its run with it.
//
// Counters are monotone and survive across sequential runs sharing the
// observer, which is what Prometheus-style scrapers expect; Metrics may
// be called concurrently with a running search for live progress. An
// Observer must not be shared by two concurrent runs — its per-worker
// counter shards are reconfigured at run start.
//
// A nil *Observer disables instrumentation entirely; the engine then
// pays a single predictable branch per trial batch and allocates
// nothing (guarded by the zero-alloc regression tests).
type Observer struct {
	reg *telemetry.Registry
	hub *telemetry.Hub
}

// NewObserver returns an observer ready to attach to Options.Observer.
func NewObserver(cfg ObserverConfig) *Observer {
	return &Observer{
		reg: telemetry.NewRegistry(),
		hub: telemetry.NewHub(cfg.EventBuffer, cfg.OnEvent),
	}
}

// Metrics returns a consistent snapshot of the observer's counters and
// gauges. Safe to call at any time, including concurrently with a
// running search (live progress) and on a nil observer (zero value).
func (o *Observer) Metrics() Metrics {
	if o == nil {
		return Metrics{}
	}
	m := o.reg.Snapshot()
	m.EventsDropped = o.hub.Dropped()
	return m
}

// Close stops the event stream: buffered events are drained into
// OnEvent and delivery finishes before Close returns. Idempotent; only
// needed when an OnEvent callback was configured, and only once the
// observer is no longer attached to a running search. Metrics stays
// usable after Close.
func (o *Observer) Close() {
	if o != nil {
		o.hub.Close()
	}
}

// HTTPHandler serves the observer's metrics over HTTP:
//
//	/metrics        Prometheus text exposition (version 0.0.4)
//	/debug/vars     expvar JSON, including an "mpmb" Metrics snapshot
//	/debug/pprof/   the standard net/http/pprof handlers
//
// The snapshot is taken per scrape, so a handler mounted while a search
// runs serves live numbers. The mpmb-search CLI mounts this behind its
// -metrics-addr flag.
func (o *Observer) HTTPHandler() http.Handler {
	return telemetry.HTTPHandler(o.Metrics)
}

// WritePrometheus renders the current snapshot in the Prometheus text
// exposition format — the same payload HTTPHandler serves at /metrics,
// for callers that want one-shot output (e.g. writing a file).
func (o *Observer) WritePrometheus(w io.Writer) error {
	return telemetry.WritePrometheus(w, o.Metrics())
}

// InstrumentStore attaches the observer to a CheckpointStore, counting
// successful saves and retried attempts (Metrics.CheckpointSaves /
// CheckpointRetries) and emitting EventCheckpointSaved /
// EventCheckpointRetried. A nil observer detaches instrumentation.
func (o *Observer) InstrumentStore(s *CheckpointStore) {
	if s == nil {
		return
	}
	if o == nil {
		s.SetProbe(nil)
		return
	}
	s.SetProbe(&telemetry.Probe{Reg: o.reg, Hub: o.hub, Phase: "checkpoint"})
}

// probe builds the internal instrumentation handle the core runners
// consume, sizing the per-worker counter shards for the run. Nil-safe:
// a nil observer yields the nil probe, the engine's disabled state.
func (o *Observer) probe(method Method, workers int) *telemetry.Probe {
	if o == nil {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	o.reg.EnsureWorkers(workers)
	return &telemetry.Probe{Reg: o.reg, Hub: o.hub, Method: string(method)}
}

// finishMetrics stamps a final snapshot onto the result; shared by every
// entry point so Result.Metrics is always the run-end view.
func finishMetrics(o *Observer, res *Result) {
	if o == nil || res == nil {
		return
	}
	m := o.Metrics()
	res.Metrics = &m
}
