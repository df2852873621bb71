// Command mpmb-search finds the most probable maximum weighted
// butterflies of an uncertain bipartite network stored in the library's
// text or binary interchange format (see mpmb-gen).
//
// Usage:
//
//	mpmb-search -graph movielens.graph                 # OLS, paper defaults
//	mpmb-search -graph g.graph -method os -trials 50000 -topk 10
//	mpmb-search -graph g.graph -method ols -workers 8  # parallel trials
//	mpmb-search -graph tiny.graph -method exact        # ≤ 24 edges
//	mpmb-search -graph g.graph -disjoint -stats
//
// Long runs degrade gracefully instead of dying: a -timeout expiry or a
// Ctrl-C stops the search at the next trial boundary and reports the
// estimates over the trials completed so far. With -checkpoint the
// cancelled run's accumulator state is saved, and -resume finishes it
// later, bit-identical to a run that was never interrupted:
//
//	mpmb-search -graph big.graph -trials 1000000 -timeout 30s -checkpoint run.ckpt
//	mpmb-search -graph big.graph -trials 1000000 -resume run.ckpt
//
// Adaptive runs add self-healing and accuracy-aware stopping on top:
// -audit-every interleaves full-sampling coverage audits that widen an
// under-prepared OLS candidate set (or fall back to OS when the
// escalation budget runs out), -epsilon stops as soon as the leading
// estimate is tight enough, and -deadline bounds the wall-clock budget
// while still reporting the honest partial result:
//
//	mpmb-search -graph big.graph -method ols -audit-every 1000
//	mpmb-search -graph big.graph -method os -trials 10000000 -epsilon 0.005
//	mpmb-search -graph big.graph -deadline 5m -checkpoint run.ckpt
//
// Observability: -progress repaints a live stderr line (trial rate,
// prune split, leading estimate), -metrics-addr serves Prometheus
// /metrics, expvar /debug/vars and /debug/pprof/ while the run lasts
// (-metrics-hold keeps it up afterwards for a final scrape), and
// -journal appends the run's typed telemetry events as JSON lines,
// replayable with `mpmb-bench journal`:
//
//	mpmb-search -graph big.graph -progress -metrics-addr :9090
//	mpmb-search -graph big.graph -journal run.jsonl
//
// Scaling out: -dist-listen turns the run into a distributed
// coordinator that leases trial ranges to worker processes over HTTP,
// and -join turns an mpmb-search process into such a worker (no -graph
// needed: workers fetch the graph and the candidate set from the
// coordinator). The fan-out is exact — the distributed Result is
// bit-identical to the sequential run with the same seed, even when
// workers die mid-run:
//
//	mpmb-search -graph big.graph -trials 10000000 -dist-listen :9191
//	mpmb-search -join http://coordinator:9191     # on each worker box
//
// The fan-out is fault-tolerant on both sides: workers retry coordinator
// exchanges with backoff and park in a reconnect loop when the
// coordinator goes unreachable. -reconnect bounds that loop, and also how
// long a worker waits for a coordinator it has not reached yet, so a
// worker whose coordinator finished before its first poll exits. With
// -dist-journal the coordinator write-ahead journals its lease book so a
// killed coordinator restarted with the same flags replays the merged
// prefix and finishes the run bit-identically:
//
//	mpmb-search -graph big.graph -dist-listen :9191 -dist-journal ./wal
//	mpmb-search -join http://coordinator:9191 -reconnect 2m
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/cliflags"
	"github.com/uncertain-graphs/mpmb/internal/dist"
	"github.com/uncertain-graphs/mpmb/internal/profiling"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpmb-search:", err)
		os.Exit(1)
	}
}

// run parses args and executes the search, writing human-readable results
// to out. Split from main for testability.
func run(args []string, out io.Writer) (retErr error) {
	fs := cliflags.New("mpmb-search")
	var (
		path     = fs.String("graph", "", "input graph file (required)")
		method   = fs.String("method", "ols", "search method: exact, mc-vp, os, ols-kl, ols")
		trials   = fs.Int("trials", 20000, "sampling trials N")
		prep     = fs.Int("prep-trials", 100, "OLS preparing-phase trials")
		seed     = fs.Uint64("seed", 1, "random seed")
		topk     = fs.Int("top-k", 5, "how many butterflies to report")
		mu       = fs.Float64("mu", 0.05, "Equation 8 target probability (ols-kl)")
		disjoint = fs.Bool("disjoint", false, "report vertex-disjoint butterflies (scattered view)")
		stats    = fs.Bool("stats", false, "also print butterfly-count statistics")
		workers  = fs.Int("workers", 0, "parallel workers for os/ols/ols-kl (0 = sequential)")
		timeout  = fs.Duration("timeout", 0, "stop after this long and report partial results (0 = no limit)")
		ckpt     = fs.String("checkpoint", "", "write a cancelled run's resumable state to this file")
		resume   = fs.String("resume", "", "resume a cancelled run from this checkpoint file")
		jsonOut  = fs.String("json", "", "also write the reported butterflies as JSON to this file")

		distListen  = fs.String("dist-listen", "", "coordinate a distributed run: lease trial ranges to workers joining on this address")
		distJournal = fs.String("dist-journal", "", "journal the coordinator's lease book under this directory; a killed coordinator restarted with the same flags resumes from the merged prefix")
		join        = fs.String("join", "", "run as a distributed worker for the coordinator at this base URL (no -graph needed)")
		reconnect   = fs.Duration("reconnect", 0, "how long a worker keeps trying to reach an unreachable coordinator, before its first exchange or after losing it, before giving up (0 = 30s default)")

		auditEvery = fs.Int("audit-every", 0, "interleave a coverage audit every N OLS sampling trials (0 = off)")
		maxEsc     = fs.Int("max-escalations", 0, "audit escalations before falling back to os (0 = default)")
		epsilon    = fs.Float64("epsilon", 0, "stop once the leader estimate's half-width is ≤ this (0 = off)")
		deadline   = fs.Duration("deadline", 0, "wall-clock budget; stop at the trial boundary past it (0 = off)")
		stall      = fs.Duration("stall-timeout", 0, "fail with a stall error after this long without progress (0 = off)")

		tele  = fs.TelemetryFlags()
		query = fs.QueryFlags()
	)
	cpuProfile, memProfile := fs.Profiling()
	// Old spellings keep parsing, hidden from -help.
	fs.Alias("prep", "prep-trials")
	fs.Alias("topk", "top-k")
	// Map Options fields back to the flags that set them, so validation
	// errors name a flag.
	for field, fl := range map[string]string{
		"Method": "method", "Trials": "trials", "PrepTrials": "prep-trials",
		"Mu": "mu", "Workers": "workers", "AuditEvery": "audit-every",
		"MaxEscalations": "max-escalations", "Epsilon": "epsilon",
		"Deadline": "deadline", "StallTimeout": "stall-timeout",
	} {
		fs.Field(field, fl)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join != "" {
		if *distListen != "" {
			return fmt.Errorf("-join and -dist-listen are mutually exclusive: a process is a worker or a coordinator, not both")
		}
		return runWorker(*join, *workers, *reconnect, out)
	}
	if *path == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	opt := mpmb.Options{
		Method:         mpmb.Method(*method),
		Trials:         *trials,
		PrepTrials:     *prep,
		Seed:           *seed,
		Mu:             *mu,
		Workers:        *workers,
		AuditEvery:     *auditEvery,
		MaxEscalations: *maxEsc,
		Epsilon:        *epsilon,
		StallTimeout:   *stall,
	}
	if *deadline > 0 {
		opt.Deadline = time.Now().Add(*deadline) // restarted once the graph is loaded
	}
	var coord *dist.Coordinator
	if *distListen != "" {
		coord = dist.NewCoordinator()
		if *distJournal != "" {
			coord.Journal = &dist.Journal{Dir: *distJournal}
		}
		opt.Executor = &dist.Executor{C: coord}
	} else if *distJournal != "" {
		return fmt.Errorf("-dist-journal requires -dist-listen")
	}
	var err error
	if opt.Query, err = query.Build(); err != nil {
		return err
	}
	// A bad flag fails here, before the graph is read.
	if err := opt.Validate(); err != nil {
		return fs.DecorateError(err)
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	g, err := mpmb.LoadGraph(*path)
	if err != nil {
		return err
	}
	tr, err := startTelemetry(tele, telemetryStatusW)
	if err != nil {
		return err
	}
	defer func() {
		if terr := tr.finish(); terr != nil && retErr == nil {
			retErr = terr
		}
	}()
	fmt.Fprintf(out, "loaded %s: |L|=%d |R|=%d |E|=%d\n", *path, g.NumL(), g.NumR(), g.NumEdges())
	if *stats {
		fmt.Fprintf(out, "backbone butterflies: %d; expected per world: %.2f\n",
			mpmb.CountButterflies(g), mpmb.ExpectedButterflies(g))
	}

	opt.Observer = tr.Observer()
	if *deadline > 0 {
		opt.Deadline = time.Now().Add(*deadline)
	}
	if coord != nil {
		hs, err := telemetry.ListenAndServe(*distListen, coord.Handler())
		if err != nil {
			return err
		}
		defer hs.Close()
		fmt.Fprintf(out, "dist: coordinating on %s\n", hs.Addr())
	}
	// Checkpoint I/O goes through the retrying store: transient failures
	// on flaky volumes back off and retry instead of losing the run.
	store := mpmb.NewCheckpointStore(mpmb.DefaultRetryPolicy())
	tr.Observer().InstrumentStore(store)
	if *resume != "" {
		ck, err := store.Load(*resume)
		if err != nil {
			return fmt.Errorf("loading checkpoint: %w", err)
		}
		opt.Resume = ck
	}

	// Ctrl-C, SIGTERM and -timeout all cancel the context; the search then
	// stops at the next trial boundary and returns the completed prefix.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	t0 := time.Now()
	res, err := mpmb.SearchContext(ctx, g, opt)
	if err != nil {
		return fs.DecorateError(err)
	}
	elapsed := time.Since(t0)

	if res.PrepTrials > 0 {
		fmt.Fprintf(out, "method=%s trials=%d (+%d preparing) time=%v\n",
			res.Method, res.Trials, res.PrepTrials, elapsed.Round(time.Millisecond))
	} else {
		fmt.Fprintf(out, "method=%s trials=%d time=%v\n", res.Method, res.Trials, elapsed.Round(time.Millisecond))
	}
	if ad := res.Adaptive; ad != nil {
		fmt.Fprintf(out, "adaptive: stop=%s", ad.StopReason)
		if ad.HalfWidth > 0 {
			fmt.Fprintf(out, " half-width=%.5f", ad.HalfWidth)
		}
		if ad.Audits > 0 {
			fmt.Fprintf(out, " audits=%d escalations=%d", ad.Audits, ad.Escalations)
		}
		fmt.Fprintf(out, " final-method=%s\n", ad.FinalMethod)
		for _, tr := range ad.Transitions {
			fmt.Fprintf(out, "adaptive: transition %s -> %s (%s, at trial %d)\n", tr.From, tr.To, tr.Reason, tr.AtTrial)
		}
		if s := ad.PrepSizing; s != nil {
			mode := fmt.Sprintf("sampled %d edges", s.SampledEdges)
			if s.Exhaustive {
				mode = "exhaustive"
			}
			fmt.Fprintf(out, "prep-sizing: expected-butterflies=%.4g prep-trials=%d entry=%s (%s pre-pass)\n",
				s.ExpectedButterflies, s.PrepTrials, s.EntryMethod, mode)
		}
	}
	if len(res.Communities) > 0 {
		fmt.Fprintf(out, "per-community results (%d communities):\n", len(res.Communities))
		for _, cr := range res.Communities {
			if best, ok := cr.Result.Best(); ok {
				fmt.Fprintf(out, "  community %-4d %-20s weight=%-10.4g P̂=%.4f (%d estimates)\n",
					cr.Community, best.B, best.Weight, best.P, len(cr.Result.Estimates))
			} else {
				fmt.Fprintf(out, "  community %-4d no butterfly was ever maximum\n", cr.Community)
			}
		}
	}
	if res.Partial {
		fmt.Fprintf(out, "stopped after %d/%d trials; estimates cover the completed prefix\n",
			res.TrialsDone, res.Trials)
		if *ckpt != "" {
			if res.Checkpoint == nil {
				fmt.Fprintf(out, "method %s has no resumable state; re-run to completion\n", res.Method)
			} else if err := store.Save(*ckpt, res.Checkpoint); err != nil {
				return fmt.Errorf("saving checkpoint: %w", err)
			} else {
				fmt.Fprintf(out, "checkpoint saved to %s (finish with -resume %s)\n", *ckpt, *ckpt)
			}
		}
	}

	top := res.TopK(*topk)
	if *disjoint {
		top = res.TopKDisjoint(*topk)
	}
	if len(top) == 0 {
		fmt.Fprintln(out, "no butterfly was ever maximum in a sampled world")
		return nil
	}
	kind := "most probable maximum weighted butterflies"
	if *disjoint {
		kind = "vertex-disjoint " + kind
	}
	fmt.Fprintf(out, "top-%d %s:\n", len(top), kind)
	for i, e := range top {
		fmt.Fprintf(out, "  #%-2d %-20s weight=%-10.4g P̂=%.4f\n", i+1, e.B, e.Weight, e.P)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res, top); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonOut)
	}
	return nil
}

// runWorker joins a coordinator and executes leased trial ranges until
// the coordinator exits (the normal end of a run) or a shutdown signal
// arrives. Workers carry no run state of their own: the graph and the
// candidate set are fetched and checksum-verified from the coordinator,
// and an abandoned lease is simply reissued to another worker.
func runWorker(base string, pool int, reconnect time.Duration, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(out, "dist: worker joining %s\n", base)
	w := &dist.Worker{Base: base, Pool: pool, ReconnectMax: reconnect}
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "dist: worker done")
	return nil
}

// writeJSON dumps the search metadata and reported butterflies.
func writeJSON(path string, res *mpmb.Result, top []mpmb.Estimate) error {
	type jsonButterfly struct {
		U1, U2, V1, V2 uint32
		Weight         float64
		P              float64
	}
	doc := struct {
		Method      string                 `json:"method"`
		Trials      int                    `json:"trials"`
		PrepTrials  int                    `json:"prep_trials,omitempty"`
		Partial     bool                   `json:"partial,omitempty"`
		TrialsDone  int                    `json:"trials_done,omitempty"`
		Adaptive    *mpmb.AdaptiveReport   `json:"adaptive,omitempty"`
		Metrics     *mpmb.Metrics          `json:"metrics,omitempty"`
		Communities []mpmb.CommunityResult `json:"communities,omitempty"`
		Top         []jsonButterfly        `json:"top"`
	}{Method: res.Method, Trials: res.Trials, PrepTrials: res.PrepTrials, Partial: res.Partial, Adaptive: res.Adaptive, Metrics: res.Metrics, Communities: res.Communities}
	if res.Partial {
		doc.TrialsDone = res.TrialsDone
	}
	for _, e := range top {
		doc.Top = append(doc.Top, jsonButterfly{
			U1: e.B.U1, U2: e.B.U2, V1: e.B.V1, V2: e.B.V2,
			Weight: e.Weight, P: e.P,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
