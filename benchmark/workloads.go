package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/dataset"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// graphSeed pins every workload's dataset analogue. The generator seed
// alone moves the jester analogue's per-query cost about 40-fold (its
// top-weight tie class ranges from ~19k to ~186k butterflies), which no
// cross-seed regression bound could absorb, so --seed varies the query
// stream (query seeds, anchors) and never the graph.
const graphSeed = 1

type kind int

const (
	// kindCold repeats one-shot cold queries: each is a fresh process that
	// loads the graph, builds the snapshot and answers one query, timed
	// from the load to the answer.
	kindCold kind = iota
	// kindLibrary is one warm process issuing library queries in a
	// closed loop.
	kindLibrary
	// kindServe is one warm in-process daemon behind a loopback HTTP
	// server, driven by daemonClients closed-loop clients.
	kindServe
)

// minColdStarts is how many cold queries a run makes at least, so
// setup_s and the latency are medians of three even when one cold start
// outlasts --seconds.
const minColdStarts = 3

// setupRuns is how many processes a warm run sets up in: two set-up-only
// processes plus the measuring one, whose median is setup_s.
const setupRuns = 3

// workload is one named input set of the benchmark.
type workload struct {
	Name    string
	Why     string
	Dataset string
	Kind    kind
	// next returns the i-th query of the stream; r draws its seed and,
	// for anchored queries, the anchor.
	next func(r *randx.RNG, g *mpmb.Graph, i int) querySpec
	// probe sizes the trace run's per-layer probes on this graph.
	probe probeSizes
}

// probeSizes sets the trial counts of the trace run's layer probes so
// each probe query costs tens to hundreds of milliseconds on the graph.
type probeSizes struct {
	OSTrials       int
	OLSTrials      int // also the Karp-Luby base trial count
	AnchoredTrials int
}

var workloads = []workload{
	{
		Name:    "cold-protein",
		Why:     "one-shot cold queries on the ~985k-edge protein analogue: graph load and snapshot build are ~97% of each, so bigraph and core.snapshot show here",
		Dataset: "protein",
		Kind:    kindCold,
		next: func(r *randx.RNG, g *mpmb.Graph, i int) querySpec {
			return querySpec{Method: "os", Trials: 200, Seed: r.Uint64()}
		},
		probe: probeSizes{OSTrials: 200, OLSTrials: 500, AnchoredTrials: 20},
	},
	{
		Name:    "ols-movielens",
		Why:     "warm OLS queries with fresh seeds: the preparing phase and the optimized estimator share the time over ~13.7k candidates",
		Dataset: "movielens",
		Kind:    kindLibrary,
		next: func(r *randx.RNG, g *mpmb.Graph, i int) querySpec {
			return querySpec{Method: "ols", Trials: 500, PrepTrials: 100, Seed: r.Uint64()}
		},
		probe: probeSizes{OSTrials: 50, OLSTrials: 500, AnchoredTrials: 50},
	},
	{
		Name:    "os-jester",
		Why:     "warm global OS queries on 2 workers: all time is in the trial kernel and LocalExecutor chunking, none in the estimators",
		Dataset: "jester",
		Kind:    kindLibrary,
		next: func(r *randx.RNG, g *mpmb.Graph, i int) querySpec {
			return querySpec{Method: "os", Trials: 300, Seed: r.Uint64(), Workers: 2}
		},
		probe: probeSizes{OSTrials: 300, OLSTrials: 500, AnchoredTrials: 50},
	},
	{
		Name:    "anchored-jester",
		Why:     "warm vertex-anchored OS queries on 2 workers, anchors alternating sides: all time is in the anchored kernel",
		Dataset: "jester",
		Kind:    kindLibrary,
		next: func(r *randx.RNG, g *mpmb.Graph, i int) querySpec {
			// A left (joke) anchor costs about half as much per trial as a
			// right (user) anchor; the trial counts even the two out so
			// the latency distribution has one mode and a steady median.
			left := i%2 == 0
			sp := querySpec{Method: "os", Trials: 50, Seed: r.Uint64(), Workers: 2}
			if left {
				sp.Trials = 100
			}
			v := pickAnchor(r, g, left)
			if left {
				sp.AnchorL = &v
			} else {
				sp.AnchorR = &v
			}
			return sp
		},
		probe: probeSizes{OSTrials: 300, OLSTrials: 500, AnchoredTrials: 50},
	},
	{
		Name:    "serve-abide",
		Why:     "daemon jobs of ~2-6 ms compute from 2 closed-loop clients: the time goes to admission, scheduling and state-file I/O",
		Dataset: "abide",
		Kind:    kindServe,
		next: func(r *randx.RNG, g *mpmb.Graph, i int) querySpec {
			// Mu is the daemon's default, spelled out so the paired
			// library search runs the very same options.
			switch i % 3 {
			case 0:
				return querySpec{Method: "os", Trials: 400, Seed: r.Uint64(), Mu: 0.05}
			case 1:
				return querySpec{Method: "ols", Trials: 2000, PrepTrials: 100, Seed: r.Uint64(), Mu: 0.05}
			default:
				return querySpec{Method: "ols-kl", Trials: 2000, PrepTrials: 100, Seed: r.Uint64(), Mu: 0.05}
			}
		},
		probe: probeSizes{OSTrials: 400, OLSTrials: 2000, AnchoredTrials: 400},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is the dataset scale: the paper-shaped default, or a tiny graph
// for smoke runs.
func (w workload) scale(smoke bool) float64 {
	if !smoke {
		return 1
	}
	switch w.Dataset {
	case "protein":
		return 0.02
	case "abide":
		return 0.3
	default:
		return 0.05
	}
}

// querySpec is one query. Its JSON form is also the daemon's job spec, so
// a serve job and its paired library search read the same fields.
type querySpec struct {
	Method     string  `json:"method"`
	Trials     int     `json:"trials"`
	PrepTrials int     `json:"prep_trials,omitempty"`
	Seed       uint64  `json:"seed"`
	Mu         float64 `json:"mu,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	AnchorL    *uint32 `json:"anchor_l,omitempty"`
	AnchorR    *uint32 `json:"anchor_r,omitempty"`
}

// options maps the spec onto the library's search options.
func (sp querySpec) options() mpmb.Options {
	opt := mpmb.Options{
		Method:     mpmb.Method(sp.Method),
		Trials:     sp.Trials,
		PrepTrials: sp.PrepTrials,
		Seed:       sp.Seed,
		Mu:         sp.Mu,
		Workers:    sp.Workers,
	}
	if sp.AnchorL != nil || sp.AnchorR != nil {
		q := &mpmb.Query{}
		if sp.AnchorL != nil {
			v := mpmb.VertexID(*sp.AnchorL)
			q.AnchorL = &v
		}
		if sp.AnchorR != nil {
			v := mpmb.VertexID(*sp.AnchorR)
			q.AnchorR = &v
		}
		opt.Query = q
	}
	return opt
}

// otherPath is the same query on the other execution path: sequential
// runs pair with the 2-worker LocalExecutor and parallel runs with
// sequential. Results must agree bit for bit.
func (sp querySpec) otherPath() querySpec {
	if sp.Workers > 0 {
		sp.Workers = 0
	} else {
		sp.Workers = 2
	}
	return sp
}

// inputs is everything a workload's child process receives: the graph
// file and the query specs, all derived from --seed.
type inputs struct {
	Workload string      `json:"workload"`
	Graph    string      `json:"graph"`
	Warmup   []querySpec `json:"warmup"`
	Queries  []querySpec `json:"queries"`
	Probe    probeSpecs  `json:"probe"`
}

// probeSpecs are the trace run's per-layer probe queries.
type probeSpecs struct {
	OS       []querySpec `json:"os"`
	OLS      []querySpec `json:"ols"`
	Anchored []querySpec `json:"anchored"`
	Serve    []querySpec `json:"serve"`
}

// streamLen bounds a workload's query stream at ten times the queries a
// run issues today, so the clock, not the list, ends the window.
func (w workload) streamLen() int {
	if w.Kind == kindServe {
		return 20000
	}
	return 2000
}

// makeInputs generates the workload's graph, writes it as a text graph
// file under dir, and writes the query specs beside it. It returns the
// inputs file path and the graph's checksum.
func makeInputs(w workload, seed uint64, smoke bool, dir string) (string, uint32, error) {
	d, err := dataset.ByName(w.Dataset, dataset.Config{Seed: graphSeed, Scale: w.scale(smoke)})
	if err != nil {
		return "", 0, err
	}
	g := d.G
	graphPath := filepath.Join(dir, "graph.txt")
	if err := mpmb.SaveGraph(graphPath, g); err != nil {
		return "", 0, fmt.Errorf("writing graph: %w", err)
	}
	in := inputs{Workload: w.Name, Graph: graphPath}
	in.Warmup, in.Queries = queryStream(w, g, seed)
	in.Probe = probeQueries(w, g, seed)
	data, err := json.Marshal(in)
	if err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, "inputs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", 0, fmt.Errorf("writing inputs: %w", err)
	}
	return path, g.Checksum(), nil
}

// warmups is how many untimed queries precede the timed ones, so the
// kernels' pooled scratch and the heap have grown to their steady size.
const warmups = 2

// queryStream derives the warm-up queries and the timed query stream.
func queryStream(w workload, g *mpmb.Graph, seed uint64) ([]querySpec, []querySpec) {
	r := randx.New(seed ^ 0x71e5_b0a7)
	warm := make([]querySpec, warmups)
	for i := range warm {
		warm[i] = w.next(r, g, i)
	}
	qs := make([]querySpec, w.streamLen())
	for i := range qs {
		qs[i] = w.next(r, g, i)
	}
	return warm, qs
}

// probeQueries derives the trace run's probe specs from an independent
// stream of the seed.
func probeQueries(w workload, g *mpmb.Graph, seed uint64) probeSpecs {
	r := randx.New(seed ^ 0x9b0b_e5ee)
	ps := w.probe
	var p probeSpecs
	for i := 0; i < 10; i++ {
		p.OS = append(p.OS, querySpec{Method: "os", Trials: ps.OSTrials, Seed: r.Uint64()})
	}
	for i := 0; i < 5; i++ {
		p.OLS = append(p.OLS, querySpec{Method: "ols", Trials: ps.OLSTrials, PrepTrials: 100, Seed: r.Uint64()})
	}
	for i := 0; i < 6; i++ {
		v := pickAnchor(r, g, i%2 == 0)
		sp := querySpec{Method: "os", Trials: ps.AnchoredTrials, Seed: r.Uint64()}
		if i%2 == 0 {
			sp.AnchorL = &v
		} else {
			sp.AnchorR = &v
		}
		p.Anchored = append(p.Anchored, sp)
	}
	jobs := 10
	if w.Kind == kindServe {
		jobs = 60
	}
	for i := 0; i < jobs; i++ {
		p.Serve = append(p.Serve, w.next(r, g, i))
	}
	return p
}

// minAnchorButterflies is the backbone butterfly count an anchor must lie
// on, so a sampled world almost surely realizes one and the anchored
// result is non-empty.
const minAnchorButterflies = 16

// pickAnchor draws a vertex of degree at least 2 that lies on at least
// minAnchorButterflies backbone butterflies, on the left side or the
// right, by rejection sampling over r, so it is a pure function of the
// stream. If no draw qualifies it returns the last one, and the empty
// anchored result then fails the correctness check visibly.
func pickAnchor(r *randx.RNG, g *mpmb.Graph, left bool) uint32 {
	n := g.NumR()
	if left {
		n = g.NumL()
	}
	v := 0
	for try := 0; try < 1000; try++ {
		v = r.Intn(n)
		if onButterflies(g, left, mpmb.VertexID(v), minAnchorButterflies) {
			break
		}
	}
	return uint32(v)
}

// onButterflies reports whether vertex v has degree at least 2 and lies
// on at least need backbone butterflies. Each same-side vertex x that
// shares k neighbours with v closes C(k,2) butterflies with it, so the
// count grows by k when x's k+1-th shared neighbour appears; the walk
// stops as soon as need is reached.
func onButterflies(g *mpmb.Graph, left bool, v mpmb.VertexID, need int) bool {
	own, across := g.NeighborsR, g.NeighborsL
	if left {
		own, across = g.NeighborsL, g.NeighborsR
	}
	if len(own(v)) < 2 {
		return false
	}
	shared := make(map[mpmb.VertexID]int)
	total := 0
	for _, h := range own(v) {
		for _, x := range across(h.To) {
			if x.To == v {
				continue
			}
			total += shared[x.To]
			shared[x.To]++
			if total >= need {
				return true
			}
		}
	}
	return false
}
