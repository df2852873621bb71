// Command benchmark is the repository's end-to-end benchmark: it
// generates each workload's input graph and query stream from --seed,
// runs each workload in child processes that receive only the graph file
// and the query specs, checks every result, and prints every metric as
// "workload metric value unit n", then one JSON line per workload.
//
// Run it from the repository root, either through the offline build
// wrapper or from this module:
//
//	bash benchmark/run.sh --workload os-jester --seed 1 --seconds 10 --trace 0
//	go -C benchmark run . -work ../.bench_build/benchmark -seed 1
//
// With --trace 1 it instead runs the traced run, which times every layer
// call from outside, prints the per-layer metrics and writes the spans
// as JSON. See README.md for the metric dictionary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workloads []workload
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string
	repeat    int
	smoke     bool
	work      string
	stderr    io.Writer
}

// sessionTimeout bounds one child session, well inside the 180 s a run
// may take.
const sessionTimeout = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the query streams")
	seconds := fs.Float64("seconds", 10, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span JSON file of a traced single-workload run (default <work>/spans-<workload>-s<seed>.json)")
	repeat := fs.Int("repeat", 1, "run the set this many times and print each metric's median and spread")
	smoke := fs.Bool("smoke", false, "tiny graphs, for a quick self-test")
	work := fs.String("work", filepath.Join(".bench_build", "benchmark"), "directory for generated inputs, daemon state and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
		repeat: *repeat, smoke: *smoke, work: *work, stderr: stderr}
	if *name == "all" {
		cfg.workloads = workloads
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		cfg.workloads = []workload{w}
	}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	case *seconds <= 0 || *repeat < 1:
		fmt.Fprintln(stderr, "benchmark: --seconds and --repeat must be positive")
		return 2
	case *traceOut != "" && len(cfg.workloads) > 1:
		fmt.Fprintln(stderr, "benchmark: --trace-out needs a single --workload")
		return 2
	}
	printHeader(stdout, cfg)

	code := 0
	values := make(map[string][]float64) // "workload metric" -> one value per repetition
	for r := 0; r < cfg.repeat; r++ {
		for _, w := range cfg.workloads {
			o, err := runWorkload(cfg, w)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			o.print(stdout, w.Name)
			for _, e := range o.errors {
				fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.Name, e)
			}
			if o.failed > 0 {
				code = 1
			}
			for k, m := range o.metrics {
				values[w.Name+" "+k] = append(values[w.Name+" "+k], m.Value)
			}
		}
	}
	if cfg.repeat > 1 {
		printRepeat(stdout, cfg, values)
	}
	return code
}

// printHeader records the environment a run was measured in.
func printHeader(w io.Writer, cfg config) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	names := make([]string, len(cfg.workloads))
	for i, wl := range cfg.workloads {
		names[i] = wl.Name
	}
	fmt.Fprintf(w, "# go %s %s/%s num_cpu %d gomaxprocs %d (before Go 1.25 GOMAXPROCS ignores container CPU quotas)\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# seed %d seconds %g trace %t repeat %d smoke %t revision %s workloads %s\n",
		cfg.seed, cfg.seconds, cfg.trace, cfg.repeat, cfg.smoke, rev, strings.Join(names, ","))
}

// metricValue is one metric of a run, as it appears in the JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// outcome is one workload run.
type outcome struct {
	metrics   map[string]metricValue
	attempted int
	failed    int
	errors    []string
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = metricValue{Value: v, Unit: metricUnit(name), n: n}
}

func (o *outcome) absorb(s *sessionReport) {
	o.attempted += s.Attempted
	o.failed += s.Failed
	o.errors = append(o.errors, s.Errors...)
}

// print writes the metric lines in table order, then the JSON line.
func (o *outcome) print(w io.Writer, name string) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if v, ok := o.metrics[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %s %s %d\n", name, m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit, v.n)
			}
		}
	}
	fmt.Fprintf(w, "%s error_rate %s ratio %d\n", name, strconv.FormatFloat(float64(o.failed)/float64(max(o.attempted, 1)), 'g', -1, 64), o.attempted)
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, o.metrics})
	fmt.Fprintln(w, string(line))
}

// runWorkload generates the workload's inputs and runs its sessions.
func runWorkload(cfg config, w workload) (*outcome, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-s%d", w.Name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The inputs and the daemon's state (thousands of small files on
	// serve-abide) are scratch; the next run regenerates them.
	defer os.RemoveAll(dir)
	inPath, _, err := makeInputs(w, cfg.seed, cfg.smoke, dir)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: make(map[string]metricValue)}
	if cfg.trace {
		out := cfg.traceOut
		if out == "" {
			out = filepath.Join(cfg.work, fmt.Sprintf("spans-%s-s%d.json", w.Name, cfg.seed))
		}
		s, err := session(cfg, inPath, modeTrace, 0, out)
		if err != nil {
			return nil, err
		}
		o.absorb(s)
		for _, m := range perLayer {
			o.set(m.Name, s.Layer[m.Name], 1)
		}
		return o, nil
	}

	var sessions []*sessionReport
	var lat []float64
	var wall float64
	if w.Kind == kindCold {
		start := time.Now()
		for c := 0; c < w.streamLen(); c++ {
			if c >= minColdStarts && time.Since(start).Seconds() >= cfg.seconds {
				break
			}
			s, err := session(cfg, inPath, modeCold, c, "")
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, s)
			lat = append(lat, s.LatMS...)
			wall += s.WallS
		}
	} else {
		for k := 0; k < setupRuns; k++ {
			mode := modeSetup
			if k == setupRuns-1 {
				mode = modeMeasure
			}
			s, err := session(cfg, inPath, mode, k, "")
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, s)
		}
		last := sessions[len(sessions)-1]
		lat, wall = last.LatMS, last.WallS
	}
	var setup, rss []float64
	for _, s := range sessions {
		o.absorb(s)
		setup = append(setup, s.SetupS)
		rss = append(rss, float64(s.RSSKB)*1024/1e6)
	}
	if len(lat) == 0 {
		return nil, errors.New("no query completed in the window")
	}
	o.set("setup_s", median(setup), len(setup))
	o.set("query_p50_ms", median(lat), len(lat))
	o.set("queries_per_s", float64(len(lat))/wall, len(lat))
	o.set("peak_rss_mb", median(rss), len(rss))
	return o, nil
}

// session runs one child process of the workload and returns its report.
func session(cfg config, inPath, mode string, offset int, traceOut string) (*sessionReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-mode", mode, "-inputs", inPath, "-offset", strconv.Itoa(offset),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace-out", traceOut)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = cfg.stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s session %d: %w", mode, offset, err)
	}
	var rep sessionReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("%s session %d: reading its report: %w", mode, offset, err)
	}
	return &rep, nil
}

// printRepeat prints, per workload and metric, the median over the
// repetitions and the interquartile spread as a share of it, flagging an
// end-to-end metric whose spread exceeds its regression bound.
func printRepeat(w io.Writer, cfg config, values map[string][]float64) {
	fmt.Fprintf(w, "# repeat %d: workload metric median spread bound\n", cfg.repeat)
	tab := endToEnd
	if cfg.trace {
		tab = perLayer
	}
	for _, wl := range cfg.workloads {
		for _, m := range tab {
			vs := values[wl.Name+" "+m.Name]
			if len(vs) == 0 {
				continue
			}
			sp := spread(vs)
			flag := ""
			if m.Bound > 0 && sp > m.Bound {
				flag = " EXCEEDS"
			}
			fmt.Fprintf(w, "repeat %s %s %s %.4f %g%s\n", wl.Name, m.Name,
				strconv.FormatFloat(median(vs), 'g', 6, 64), sp, m.Bound, flag)
		}
	}
}
