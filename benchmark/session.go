package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// childEnv marks a process as one session of a workload. The parent
// re-executes its own binary with it set, so each session measures a
// process that holds only the graph file and the query specs.
const childEnv = "MPMB_BENCHMARK_CHILD"

// Session modes.
const (
	modeSetup   = "setup"   // set up and answer the warm-up query
	modeMeasure = "measure" // set up, then issue queries for --seconds
	modeCold    = "cold"    // set up, then answer one query
	modeTrace   = "trace"   // the traced run with the per-layer probes
)

// sessionReport is what a session hands back to the parent, as JSON on
// its standard output.
type sessionReport struct {
	SetupS    float64            `json:"setup_s"`
	RSSKB     int64              `json:"rss_kb"`
	LatMS     []float64          `json:"lat_ms,omitempty"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// fail counts one failed operation, keeping the first few messages.
func (r *sessionReport) fail(what string, err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, what+": "+err.Error())
	}
}

// merge folds the counts of a report made concurrently elsewhere.
func (r *sessionReport) merge(o *sessionReport) {
	r.Attempted += o.Attempted
	for _, e := range o.Errors {
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, e)
		}
	}
	r.Failed += o.Failed
}

// childMain runs one session and prints its report.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	mode := fs.String("mode", "", "setup, measure, cold or trace")
	inPath := fs.String("inputs", "", "inputs file written by the parent")
	seconds := fs.Float64("seconds", 10, "measured window")
	offset := fs.Int("offset", 0, "session index")
	traceOut := fs.String("trace-out", "", "span JSON output (trace mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in, err := readInputs(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark session:", err)
		return 1
	}
	w, ok := workloadByName(in.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark session: unknown workload %q\n", in.Workload)
		return 1
	}
	var rep *sessionReport
	switch {
	case *mode == modeTrace:
		rep, err = traceSession(w, in, *seconds, *traceOut)
	case w.Kind == kindServe:
		rep, err = serveSession(in, *mode, *seconds, *offset)
	default:
		rep, err = librarySession(in, *mode, *seconds, *offset)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark session:", err)
		return 1
	}
	for k, v := range rep.Layer {
		rep.Layer[k] = finite(v) // a probe whose every query failed has no sample
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

func readInputs(path string) (*inputs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var in inputs
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &in, nil
}

// setUp loads the graph file and builds the calibrated snapshot the trial
// kernels share: the set-up every library user pays before the first
// query answers.
func setUp(path string) (*mpmb.Graph, error) {
	g, err := mpmb.LoadGraph(path)
	if err != nil {
		return nil, err
	}
	core.NewKernelBench(g, core.OSOptions{})
	return g, nil
}

// librarySession runs a setup, measure or cold session of a library
// workload.
func librarySession(in *inputs, mode string, seconds float64, offset int) (*sessionReport, error) {
	rep := &sessionReport{}
	start := time.Now()
	g, err := setUp(in.Graph)
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(start).Seconds()
	rep.RSSKB = peakRSSKB()

	var kept []keptResult
	switch mode {
	case modeSetup, modeMeasure:
		warmLibrary(g, in.Warmup, rep)
		if mode == modeSetup {
			return rep, nil
		}
		rep.LatMS, rep.WallS, kept = libraryWindow(g, in.Queries, seconds, rep, nil)
	case modeCold:
		if offset >= len(in.Queries) {
			return nil, fmt.Errorf("cold query %d runs past the query stream", offset)
		}
		_, _, kept = libraryWindow(g, in.Queries[offset:offset+1], -1, rep, nil)
		rep.WallS = time.Since(start).Seconds()
		rep.LatMS = []float64{rep.WallS * 1e3}
	default:
		return nil, fmt.Errorf("unknown session mode %q", mode)
	}
	crossCheck(g, kept, rep)
	return rep, nil
}

// warmLibrary answers the warm-up queries, untimed but checked.
func warmLibrary(g *mpmb.Graph, specs []querySpec, rep *sessionReport) {
	for _, sp := range specs {
		rep.Attempted++
		res, err := mpmb.Search(g, sp.options())
		if err := checkResult(sp, res, err); err != nil {
			rep.fail("warm-up", err)
		}
	}
}

// keptResult is a timed query kept for the untimed cross-check.
type keptResult struct {
	sp  querySpec
	res *mpmb.Result
}

// libraryWindow issues qs in order in a closed loop until seconds have
// passed (every query when seconds < 0) and returns the latencies, the
// wall time and every tenth result. With a recorder each query runs as
// its sequence of per-layer calls, each a span.
func libraryWindow(g *mpmb.Graph, qs []querySpec, seconds float64, rep *sessionReport, rec *recorder) ([]float64, float64, []keptResult) {
	var lat []float64
	var kept []keptResult
	start := time.Now()
	for i, sp := range qs {
		if seconds >= 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		t := time.Now()
		res, err := runLibrary(g, sp, rec)
		lat = append(lat, ms(time.Since(t)))
		rep.Attempted++
		if err := checkResult(sp, res, err); err != nil {
			rep.fail(fmt.Sprintf("query %d", i), err)
			continue
		}
		if i%10 == 0 {
			kept = append(kept, keptResult{sp, res})
		}
	}
	return lat, time.Since(start).Seconds(), kept
}

// crossCheck re-runs each kept query, untimed, through the other
// execution path and requires a bit-identical result.
func crossCheck(g *mpmb.Graph, kept []keptResult, rep *sessionReport) {
	for _, k := range kept {
		other := k.sp.otherPath()
		res, err := mpmb.Search(g, other.options())
		rep.Attempted++
		if err == nil {
			err = sameResult(k.res, res)
		}
		if err != nil {
			rep.fail(fmt.Sprintf("cross-check (workers %d vs %d)", k.sp.Workers, other.Workers), err)
		}
	}
}

// runLibrary answers one query: through mpmb.Search when untraced, or as
// the same sequence of core calls the search makes, each a span, when
// traced.
func runLibrary(g *mpmb.Graph, sp querySpec, rec *recorder) (*mpmb.Result, error) {
	if rec == nil {
		return mpmb.Search(g, sp.options())
	}
	q := rec.query()
	top := rec.start(0, q, "query")
	defer rec.end(top)
	return decomposed(g, sp, rec, top, q)
}

// decomposed runs the query as the core calls mpmb.Search dispatches to,
// recording each as a child span of parent.
func decomposed(g *mpmb.Graph, sp querySpec, rec *recorder, parent, q int) (*mpmb.Result, error) {
	osOpt := core.OSOptions{Trials: sp.Trials, Seed: sp.Seed}
	switch {
	case sp.Method == "os" && (sp.AnchorL != nil || sp.AnchorR != nil):
		id := rec.start(parent, q, "core.anchored")
		defer rec.end(id)
		if sp.Workers > 0 {
			return core.AnchoredOSParallel(g, sp.anchor(), osOpt, sp.Workers)
		}
		return core.AnchoredOS(g, sp.anchor(), osOpt)
	case sp.Method == "os":
		id := rec.start(parent, q, "core.os")
		defer rec.end(id)
		if sp.Workers > 0 {
			return core.OSParallel(g, osOpt, sp.Workers)
		}
		return core.OS(g, osOpt)
	default:
		id := rec.start(parent, q, "core.prep")
		cands, err := core.PrepareCandidates(g, sp.PrepTrials, sp.Seed, core.OSOptions{})
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.start(parent, q, "core.estimator")
		defer rec.end(id)
		return core.OLSSamplingPhaseParallel(cands, core.OLSOptions{
			PrepTrials:  sp.PrepTrials,
			Trials:      sp.Trials,
			Seed:        sp.Seed,
			UseKarpLuby: sp.Method == "ols-kl",
			KL:          core.KLOptions{Mu: sp.Mu},
		}, sp.Workers)
	}
}

// anchor is the spec's vertex anchor in core form.
func (sp querySpec) anchor() core.Anchor {
	if sp.AnchorL != nil {
		return core.Anchor{Kind: core.AnchorLeft, U: mpmb.VertexID(*sp.AnchorL)}
	}
	return core.Anchor{Kind: core.AnchorRight, V: mpmb.VertexID(*sp.AnchorR)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSKB is the process's peak resident set size (VmHWM) in kB, or 0
// where /proc is unavailable. Sessions read it at the end of set-up: read
// after a few OLS queries it swings between ~37 and ~61 MB on the
// movielens graph with where the garbage collector happened to run.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
