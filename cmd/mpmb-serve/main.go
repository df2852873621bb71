// Command mpmb-serve is the always-on MPMB search service: a
// fault-tolerant, multi-tenant HTTP daemon over the library's search
// engine.
//
// Usage:
//
//	mpmb-serve -graphs ./graphs -state ./state -addr :8080
//	mpmb-serve -graphs ./graphs -state ./state -workers 4 -queue 128
//	mpmb-serve -graphs ./graphs -state ./state -checkpoint-every 10s
//
// Clients submit jobs over JSON, poll status, stream progress events,
// cancel, and fetch results:
//
//	curl -XPOST :8080/v1/jobs -H 'X-Tenant: alice' \
//	     -d '{"graph":"movielens.graph","trials":1000000,"seed":7}'
//	curl :8080/v1/jobs/<id>            # status + live metrics
//	curl :8080/v1/jobs/<id>/events     # NDJSON progress stream
//	curl -XPOST :8080/v1/jobs/<id>/cancel
//	curl :8080/v1/jobs/<id>/result
//
// Robustness is the point, not a feature flag. Admission is bounded (a
// full queue or an exhausted per-tenant trial budget answers 429 with a
// Retry-After hint), each tenant gets a concurrency cap plus a
// token-bucket trial budget, every job runs isolated behind a panic
// shield with its own observer and event stream, and running jobs
// checkpoint periodically through the retrying checkpoint store. On
// SIGTERM/SIGINT the daemon stops admission (/readyz flips to 503),
// lets in-flight jobs finish for -drain-grace, checkpoints whatever
// still runs, and exits; restarting with the same -state resumes the
// interrupted jobs from their checkpoints and finishes them
// bit-identically to runs that were never interrupted — the engine
// derives every trial's randomness from (seed, trial index), so a
// resumed prefix is the same prefix.
//
// /healthz answers liveness, /readyz readiness (not-ready while
// draining), and /metrics serves the daemon's lifecycle counters plus
// the aggregated engine telemetry in Prometheus text format.
//
// Scaling out: -dist mounts the distributed coordinator's /dist/v1
// lease endpoints on the same listener and hands eligible jobs'
// sampling trials to a worker fleet instead of the in-process pool,
// and -worker -join turns an mpmb-serve process into such a worker:
//
//	mpmb-serve -graphs ./graphs -state ./state -dist
//	mpmb-serve -worker -join http://daemon:8080    # on each worker box
//
// Fan-out is exact: a distributed job's Result is bit-identical to the
// same job run locally, even across worker deaths mid-run. The dist
// lease book journals under -state, so a killed daemon replays a
// distributed job's merged prefix on restart; -dist-fallback degrades a
// job to the in-process pool when the fleet stays silent that long
// (recorded as a dist→local transition in the result); and -reconnect
// bounds how long a worker keeps retrying an unreachable daemon, both
// before its first exchange and after losing it.
//
// Retention: -retain-ttl and -retain-max garbage-collect finished jobs
// (result, manifest, event journal) on a background sweep; queued,
// running and suspended jobs are never evicted.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/cliflags"
	"github.com/uncertain-graphs/mpmb/internal/dist"
	"github.com/uncertain-graphs/mpmb/internal/serve"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpmb-serve:", err)
		os.Exit(1)
	}
}

// run parses args and serves until a shutdown signal. Split from main
// for testability; out receives the startup/shutdown status lines the
// helper-process tests synchronize on.
func run(args []string, out io.Writer) error {
	fs := cliflags.New("mpmb-serve")
	var (
		addr   = fs.String("addr", ":8080", "HTTP listen address")
		graphs = fs.String("graphs", ".", "directory job graph names resolve under")
		state  = fs.String("state", "", "state directory for manifests, checkpoints, results (required)")

		queueDepth = fs.Int("queue", 0, "admission queue depth (0 = default 64)")
		workers    = fs.Int("workers", 0, "concurrent jobs (0 = default 2)")
		maxTrials  = fs.Int("max-trials", 0, "reject single jobs above this many total trials (0 = no cap)")

		tenantJobs  = fs.Int("tenant-jobs", 0, "per-tenant active-job cap (0 = default 4)")
		tenantRate  = fs.Float64("tenant-trial-rate", 0, "per-tenant trial-budget refill per second (0 = default 1e6)")
		tenantBurst = fs.Float64("tenant-trial-burst", 0, "per-tenant trial-budget bucket size (0 = default 2e7)")

		ckptEvery  = fs.Duration("checkpoint-every", 0, "periodic job checkpoint interval (0 = default 30s, negative = off)")
		drainGrace = fs.Duration("drain-grace", 0, "how long drain lets jobs finish before suspending them (0 = default 10s)")
		journal    = fs.Bool("journal-events", false, "persist each job's telemetry events as JSONL under the state dir")
		cacheSize  = fs.Int("graph-cache", 0, "graphs kept hot with their prepared candidate caches (0 = default 16)")

		distMode     = fs.Bool("dist", false, "mount the /dist/v1 coordinator and fan eligible jobs' trials out to joined workers")
		distFallback = fs.Duration("dist-fallback", 0, "degrade a distributed job to the in-process pool after the fleet is silent this long (0 = never)")
		worker       = fs.Bool("worker", false, "run as a distributed worker instead of a daemon (requires -join)")
		join         = fs.String("join", "", "coordinator base URL a -worker leases trial ranges from")
		pool         = fs.Int("pool", 0, "worker-mode local pool size per leased range (0 = GOMAXPROCS)")
		reconnect    = fs.Duration("reconnect", 0, "how long a worker keeps trying to reach an unreachable coordinator, before its first exchange or after losing it, before giving up (0 = 30s default)")

		retainTTL = fs.Duration("retain-ttl", 0, "evict finished jobs (result, manifest, events) this long after they end (0 = keep forever)")
		retainMax = fs.Int("retain-max", 0, "keep at most this many finished jobs, evicting oldest first (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker {
		if *join == "" {
			fs.Usage()
			return fmt.Errorf("-worker requires -join")
		}
		return runWorker(*join, *pool, *reconnect, out)
	}
	if *join != "" {
		return fmt.Errorf("-join only applies to -worker mode")
	}
	if *state == "" {
		fs.Usage()
		return fmt.Errorf("-state is required")
	}

	srv, err := serve.New(serve.Config{
		GraphRoot:        *graphs,
		StateDir:         *state,
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		MaxTrials:        *maxTrials,
		TenantJobs:       *tenantJobs,
		TenantTrialRate:  *tenantRate,
		TenantTrialBurst: *tenantBurst,
		CheckpointEvery:  *ckptEvery,
		DrainGrace:       *drainGrace,
		JournalEvents:    *journal,
		GraphCacheSize:   *cacheSize,
		Dist:             *distMode,
		DistFallback:     *distFallback,
		RetainTTL:        *retainTTL,
		RetainMax:        *retainMax,
	})
	if err != nil {
		return err
	}

	// The same synchronous-bind helper the search CLI uses: a taken port
	// fails the start with the address in the message, instead of a
	// background goroutine losing the error after the daemon came up.
	hs, err := telemetry.ListenAndServe(*addr, srv.Handler())
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(out, "mpmb-serve: listening on %s (state %s, graphs %s)\n", hs.Addr(), *state, *graphs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	signal.Stop(sig)
	fmt.Fprintf(out, "mpmb-serve: %s: draining\n", got)

	// Drain order matters: admission stops and /readyz flips FIRST, so a
	// load balancer sees not-ready while the listener still answers;
	// the listener closes only after the jobs are parked.
	ctx, cancel := context.WithTimeout(context.Background(), srv.DrainBudget())
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out, "mpmb-serve: drained cleanly")
	return nil
}

// runWorker joins a -dist daemon's coordinator and executes leased
// trial ranges until the daemon exits or a shutdown signal arrives.
// Workers are stateless: graphs and candidate sets are fetched and
// checksum-verified from the coordinator, and abandoned leases reissued
// to surviving workers.
func runWorker(base string, pool int, reconnect time.Duration, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(out, "mpmb-serve: worker joining %s\n", base)
	w := &dist.Worker{Base: base, Pool: pool, ReconnectMax: reconnect}
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "mpmb-serve: worker done")
	return nil
}
