package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/dist"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// minCoverage is the share of a traced query's time its layer spans must
// account for; below it the trace run fails.
const minCoverage = 0.95

// traceSession is the traced run of a workload. It sets up with each
// layer call timed, runs the workload's own queries untraced for half
// the window and traced for the other half, then probes every layer on
// this workload's graph so each per-layer metric exists on every
// workload. Spans go to traceOut.
func traceSession(w workload, in *inputs, seconds float64, traceOut string) (*sessionReport, error) {
	rep := &sessionReport{Layer: make(map[string]float64)}
	L := rep.Layer
	rec := newRecorder()

	q := rec.query()
	top := rec.start(0, q, "setup")
	var g *mpmb.Graph
	loadS, err := timed(rec, top, q, "bigraph.load", func() (err error) {
		g, err = mpmb.LoadGraph(in.Graph)
		return err
	})
	if err != nil {
		return nil, err
	}
	snapS, _ := timed(rec, top, q, "core.snapshot", func() error {
		core.NewKernelBench(g, core.OSOptions{})
		return nil
	})
	rec.end(top)
	fi, err := os.Stat(in.Graph)
	if err != nil {
		return nil, err
	}
	L["bigraph.load_s"] = loadS
	L["bigraph.load_mb_per_s"] = float64(fi.Size()) / 1e6 / loadS
	L["core.snapshot_s"] = snapS

	if err := traceWindows(w, in, g, seconds, rec, rep); err != nil {
		return nil, err
	}
	prepProbe(g, in.Probe.OLS, rec, rep)
	osProbe(g, in.Probe.OS, rec, rep)
	anchoredProbe(g, in.Probe.Anchored, rec, rep)
	observerProbe(g, in.Probe.OS, rec, rep)
	if err := serveProbe(in, rep); err != nil {
		return nil, err
	}
	if err := distProbe(g, in.Probe.OS[:5], rec, rep); err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := rec.write(traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceWindows runs the workload's query stream untraced for half the
// window, then traced for the other half, and pairs every tenth traced
// query with the same query through Searcher.Search.
func traceWindows(w workload, in *inputs, g *mpmb.Graph, seconds float64, rec *recorder, rep *sessionReport) error {
	L := rep.Layer
	half := seconds / 2
	var lat0, lat1 []float64
	var before, after runtime.MemStats
	var traced []querySpec
	if w.Kind == kindServe {
		d, err := startDaemon(in.Graph, filepath.Join(filepath.Dir(in.Graph), "state-trace"))
		if err != nil {
			return err
		}
		warmDaemon(d, in.Warmup, rep)
		runtime.ReadMemStats(&before)
		jobs0, _, _ := serveWindow(d, in.Queries, half, rep, nil)
		runtime.ReadMemStats(&after)
		rest := in.Queries[len(jobs0):]
		jobs1, _, _ := serveWindow(d, rest, half, rep, rec)
		for _, j := range jobs0 {
			lat0 = append(lat0, ms(j.lat))
		}
		for _, j := range jobs1 {
			lat1 = append(lat1, ms(j.lat))
			// The daemon's own stamps split the wait into queueing and
			// running, as children of the client's wait span.
			st, err := d.status(j.id)
			if err != nil {
				rep.fail("job status", err)
				continue
			}
			rec.add(j.wait, j.q, "serve.queue_wait", st.Submitted, st.Started)
			rec.add(j.wait, j.q, "serve.run", st.Started, st.Finished)
			if j.idx%10 == 0 {
				traced = append(traced, j.sp)
			}
		}
		if err := d.close(); err != nil {
			return err
		}
	} else {
		warmLibrary(g, in.Warmup, rep)
		runtime.ReadMemStats(&before)
		lat0, _, _ = libraryWindow(g, in.Queries, half, rep, nil)
		runtime.ReadMemStats(&after)
		var kept []keptResult
		lat1, _, kept = libraryWindow(g, in.Queries[len(lat0):], half, rep, rec)
		for _, k := range kept {
			traced = append(traced, k.sp)
		}
	}
	n0 := float64(len(lat0))
	L["query.tail_ms"] = tail(lat0)
	L["runtime.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / n0
	L["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n0
	L["trace.overhead_pct"] = (median(lat1)/median(lat0) - 1) * 100
	cov := coverage(rec.snapshot(), "query")
	L["trace.coverage"] = cov
	if !(cov >= minCoverage) {
		rep.fail("trace coverage", fmt.Errorf("layer spans cover %.3f of the query time, below %.2f", cov, minCoverage))
	}
	L["mpmb.search_overhead_ms"] = searchOverhead(g, traced, rec, rep)
	return nil
}

// searchOverhead runs each spec as its decomposed core calls and again
// through a fresh Searcher.Search, and returns the median of the Search
// wall time minus the decomposed calls' time: the root dispatch's own
// cost. The two results must agree bit for bit.
func searchOverhead(g *mpmb.Graph, specs []querySpec, rec *recorder, rep *sessionReport) float64 {
	var over []float64
	for _, sp := range specs {
		q := rec.query()
		top := rec.start(0, q, "decomposed")
		t := time.Now()
		a, err := decomposed(g, sp, rec, top, q)
		parts := time.Since(t)
		rec.end(top)
		rep.Attempted++
		if err := checkResult(sp, a, err); err != nil {
			rep.fail("decomposed query", err)
			continue
		}
		var b *mpmb.Result
		whole, err := timed(rec, 0, q, "mpmb.search", func() (err error) {
			b, err = mpmb.NewSearcher(g).Search(sp.options())
			return err
		})
		if err == nil {
			err = sameResult(a, b)
		}
		if err != nil {
			rep.fail("Searcher.Search vs decomposed calls", err)
			continue
		}
		over = append(over, whole*1e3-ms(parts))
	}
	return median(over)
}

// prepProbe times the OLS preparing phase and both estimators on the
// probe specs' candidate sets.
func prepProbe(g *mpmb.Graph, specs []querySpec, rec *recorder, rep *sessionReport) {
	L := rep.Layer
	var prepMS, optMS, klMS, cands, klTrials []float64
	var prepTrials, optTrials int
	var optBytes uint64
	for _, sp := range specs {
		q := rec.query()
		top := rec.start(0, q, "probe.ols")
		var c *core.Candidates
		prepS, err := timed(rec, top, q, "core.prep", func() (err error) {
			c, err = core.PrepareCandidates(g, sp.PrepTrials, sp.Seed, core.OSOptions{})
			return err
		})
		rep.Attempted++
		if err != nil {
			rec.end(top)
			rep.fail("preparing phase", err)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var probs []float64
		optS, err := timed(rec, top, q, "core.optimized", func() (err error) {
			probs, err = core.EstimateOptimized(c, core.OptimizedOptions{Trials: sp.Trials, Seed: sp.Seed})
			return err
		})
		runtime.ReadMemStats(&after)
		if err == nil {
			err = checkEstimates(probs, c.Len())
		}
		if err != nil {
			rec.end(top)
			rep.fail("optimized estimator", err)
			continue
		}
		var used []int
		klS, err := timed(rec, top, q, "core.kl", func() (err error) {
			probs, err = core.EstimateKarpLuby(c, core.KLOptions{BaseTrials: sp.Trials, Mu: 0.05, Seed: sp.Seed, TrialsUsed: &used})
			return err
		})
		rec.end(top)
		if err == nil {
			err = checkEstimates(probs, c.Len())
		}
		if err != nil {
			rep.fail("Karp-Luby estimator", err)
			continue
		}
		prepMS = append(prepMS, prepS*1e3)
		optMS = append(optMS, optS*1e3)
		klMS = append(klMS, klS*1e3)
		cands = append(cands, float64(c.Len()))
		executed := 0
		for _, u := range used {
			executed += u
		}
		klTrials = append(klTrials, float64(executed))
		prepTrials += sp.PrepTrials
		optTrials += sp.Trials
		optBytes += after.TotalAlloc - before.TotalAlloc
	}
	L["core.prep_ms"] = median(prepMS)
	L["core.prep_ns_per_trial"] = sum(prepMS) * 1e6 / float64(prepTrials)
	L["core.candidates"] = median(cands)
	L["core.optimized_ms"] = median(optMS)
	L["core.optimized_ns_per_trial"] = sum(optMS) * 1e6 / float64(optTrials)
	L["core.optimized_bytes_per_trial"] = float64(optBytes) / float64(optTrials)
	L["core.kl_ms"] = median(klMS)
	L["core.kl_trials_executed"] = median(klTrials)
}

// osProbe times the OS trial kernel sequentially and on the 2-worker
// LocalExecutor over the same queries, alternating which runs first, and
// reads the scan and prune counters from a registry probe.
func osProbe(g *mpmb.Graph, specs []querySpec, rec *recorder, rep *sessionReport) {
	L := rep.Layer
	reg := telemetry.NewRegistry()
	probe := &telemetry.Probe{Reg: reg, Method: "os"}
	var seqS, parS float64
	trials := 0
	for i, sp := range specs {
		q := rec.query()
		top := rec.start(0, q, "probe.os")
		var seq, par *mpmb.Result
		runSeq := func() (err error) {
			seq, err = core.OS(g, core.OSOptions{Trials: sp.Trials, Seed: sp.Seed, Probe: probe})
			return err
		}
		runPar := func() (err error) {
			par, err = core.OSParallel(g, core.OSOptions{Trials: sp.Trials, Seed: sp.Seed}, 2)
			return err
		}
		s, p, err1, err2 := alternate(rec, top, q, i, "core.os", runSeq, "core.os_parallel", runPar)
		rec.end(top)
		rep.Attempted++
		if err := checkPair(sp, seq, err1, par, err2); err != nil {
			rep.fail("OS sequential vs LocalExecutor{2}", err)
			continue
		}
		seqS += s
		parS += p
		trials += sp.Trials
	}
	m := reg.Snapshot()
	L["core.os_ns_per_trial"] = seqS * 1e9 / float64(trials)
	L["core.os_par_ns_per_trial"] = parS * 1e9 / float64(trials)
	L["core.par_speedup"] = seqS / parS
	L["core.edges_scanned_per_trial"] = float64(m.EdgesScanned) / float64(m.Trials)
	L["core.edges_pruned_fraction"] = m.EdgePruneRate()
	L["core.prefix_fallbacks_per_trial"] = float64(m.PrefixFallbacks) / float64(m.Trials)
}

// anchoredProbe times the sequential anchored kernel and counts its
// allocations.
func anchoredProbe(g *mpmb.Graph, specs []querySpec, rec *recorder, rep *sessionReport) {
	L := rep.Layer
	var secs float64
	var mallocs, bytes uint64
	trials := 0
	for _, sp := range specs {
		q := rec.query()
		top := rec.start(0, q, "probe.anchored")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *mpmb.Result
		s, err := timed(rec, top, q, "core.anchored", func() (err error) {
			res, err = core.AnchoredOS(g, sp.anchor(), core.OSOptions{Trials: sp.Trials, Seed: sp.Seed})
			return err
		})
		runtime.ReadMemStats(&after)
		rec.end(top)
		rep.Attempted++
		if err := checkResult(sp, res, err); err != nil {
			rep.fail("anchored kernel", err)
			continue
		}
		secs += s
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		trials += sp.Trials
	}
	L["core.anchored_ns_per_trial"] = secs * 1e9 / float64(trials)
	L["core.anchored_allocs_per_trial"] = float64(mallocs) / float64(trials)
	L["core.anchored_bytes_per_trial"] = float64(bytes) / float64(trials)
}

// observerProbe runs the OS probe queries with and without an Observer
// attached, alternating which goes first, as the daemon attaches one to
// every job.
func observerProbe(g *mpmb.Graph, specs []querySpec, rec *recorder, rep *sessionReport) {
	obs := mpmb.NewObserver(mpmb.ObserverConfig{})
	defer obs.Close()
	var with, without float64
	for i, sp := range specs {
		q := rec.query()
		top := rec.start(0, q, "probe.observer")
		var a, b *mpmb.Result
		plain := func() (err error) {
			a, err = mpmb.Search(g, sp.options())
			return err
		}
		observed := func() (err error) {
			opt := sp.options()
			opt.Observer = obs
			b, err = mpmb.Search(g, opt)
			return err
		}
		s1, s2, err1, err2 := alternate(rec, top, q, i, "mpmb.search", plain, "mpmb.search_observed", observed)
		rec.end(top)
		rep.Attempted++
		if err := checkPair(sp, a, err1, b, err2); err != nil {
			rep.fail("observed vs plain search", err)
			continue
		}
		without += s1
		with += s2
	}
	rep.Layer["telemetry.observer_overhead_pct"] = (with/without - 1) * 100
}

// serveProbe runs the probe jobs through a fresh daemon on this
// workload's graph with the closed-loop clients and splits each job's
// latency with the daemon's submitted/started/finished stamps.
func serveProbe(in *inputs, rep *sessionReport) error {
	L := rep.Layer
	state := filepath.Join(filepath.Dir(in.Graph), "state-probe")
	d, err := startDaemon(in.Graph, state)
	if err != nil {
		return err
	}
	warmDaemon(d, in.Warmup, rep)
	// Untraced: the job's calls are spans only in serve-abide's traced
	// window, where "query" spans are the workload's own jobs.
	jobs, _, rejected := serveWindow(d, in.Probe.Serve, -1, rep, nil)
	var submit, queue, run, result []float64
	for _, j := range jobs {
		st, err := d.status(j.id)
		if err != nil {
			rep.fail("job status", err)
			continue
		}
		submit = append(submit, ms(j.submit))
		queue = append(queue, ms(st.Started.Sub(st.Submitted)))
		run = append(run, ms(st.Finished.Sub(st.Started)))
		result = append(result, ms(j.resultAt.Sub(st.Finished)))
	}
	if err := d.close(); err != nil {
		return err
	}
	L["serve.submit_ms"] = median(submit)
	L["serve.queue_wait_ms"] = median(queue)
	L["serve.run_ms"] = median(run)
	L["serve.result_ms"] = median(result)
	L["serve.rejected"] = float64(rejected)
	// The warm-up jobs' files count too.
	L["serve.state_bytes_per_job"] = float64(dirBytes(state)) / float64(len(jobs)+len(in.Warmup))
	return nil
}

// distProbe runs global OS queries through the dist coordinator on a
// loopback server with one in-process 2-pool worker, against the 2-worker
// LocalExecutor, counting the coordinator's requests and wire bytes.
func distProbe(g *mpmb.Graph, specs []querySpec, rec *recorder, rep *sessionReport) error {
	L := rep.Layer
	coord := dist.NewCoordinator()
	var reqs, wire atomic.Int64
	ts := httptest.NewServer(countingHandler(coord.Handler(), &reqs, &wire))
	ctx, cancel := context.WithCancel(context.Background())
	worker := &dist.Worker{Base: ts.URL, Pool: 2}
	stopped := make(chan error, 1)
	go func() { stopped <- worker.Run(ctx) }()
	defer func() {
		cancel()
		<-stopped
		ts.Close()
	}()

	ex := &dist.Executor{C: coord}
	search := func(sp querySpec, e mpmb.Executor) (*mpmb.Result, error) {
		opt := sp.options()
		opt.Executor = e
		return mpmb.Search(g, opt)
	}
	// The first distributed query ships the graph to the worker and
	// builds its snapshot there: warm-up, untimed.
	rep.Attempted++
	res, err := search(specs[0], ex)
	if err := checkResult(specs[0], res, err); err != nil {
		rep.fail("dist warm-up", err)
	}
	local := &core.LocalExecutor{Workers: 2}
	var distS, localS float64
	var nReq, nWire int64
	n := 0
	for i, sp := range specs {
		q := rec.query()
		top := rec.start(0, q, "probe.dist")
		var a, b *mpmb.Result
		runLocal := func() (err error) {
			a, err = search(sp, local)
			return err
		}
		runDist := func() (err error) {
			r0, w0 := reqs.Load(), wire.Load()
			b, err = search(sp, ex)
			nReq += reqs.Load() - r0
			nWire += wire.Load() - w0
			return err
		}
		s1, s2, err1, err2 := alternate(rec, top, q, i, "core.local_executor", runLocal, "dist.executor", runDist)
		rec.end(top)
		rep.Attempted++
		if err := checkPair(sp, a, err1, b, err2); err != nil {
			rep.fail("dist vs LocalExecutor{2}", err)
			continue
		}
		localS += s1
		distS += s2
		n++
	}
	L["dist.overhead_pct"] = (distS/localS - 1) * 100
	L["dist.requests_per_query"] = float64(nReq) / float64(n)
	L["dist.wire_bytes_per_query"] = float64(nWire) / float64(n)
	return nil
}

// countingHandler counts requests and request plus response body bytes.
func countingHandler(h http.Handler, reqs, wire *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		r.Body = &countingReader{r.Body, wire}
		h.ServeHTTP(&countingWriter{w, wire}, r)
	})
}

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	k, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// alternate times a and b as sibling spans, a first on even i and b
// first on odd i, so a slow spell of the machine favours neither side.
func alternate(rec *recorder, top, q, i int, nameA string, a func() error, nameB string, b func() error) (sa, sb float64, ea, eb error) {
	if i%2 == 0 {
		sa, ea = timed(rec, top, q, nameA, a)
		sb, eb = timed(rec, top, q, nameB, b)
	} else {
		sb, eb = timed(rec, top, q, nameB, b)
		sa, ea = timed(rec, top, q, nameA, a)
	}
	return sa, sb, ea, eb
}

// checkPair checks both results of one query and requires them to agree
// bit for bit.
func checkPair(sp querySpec, a *mpmb.Result, ea error, b *mpmb.Result, eb error) error {
	if err := checkResult(sp, a, ea); err != nil {
		return err
	}
	if err := checkResult(sp, b, eb); err != nil {
		return err
	}
	return sameResult(a, b)
}

// timed runs f as a span and returns its duration in seconds.
func timed(rec *recorder, parent, q int, name string, f func() error) (float64, error) {
	id := rec.start(parent, q, name)
	t := time.Now()
	err := f()
	s := time.Since(t).Seconds()
	rec.end(id)
	return s, err
}
