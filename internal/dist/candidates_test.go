package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// fetchCounter counts one worker's candidate-set fetches.
type fetchCounter struct {
	n atomic.Int32
}

func (f *fetchCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/dist/v1/candidates" {
		f.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestConformanceShippedCandidates runs an optimized and a Karp-Luby job
// over every backbone butterfly, a candidate set with no hits that no
// preparing phase lists, on a coordinator with two workers. The jobs
// carry nothing but what they compute, so the workers can only get the
// set from the coordinator. Each job must return the LocalExecutor's
// state bit for bit, and each worker must fetch the set, which both jobs
// share, exactly once.
func TestConformanceShippedCandidates(t *testing.T) {
	b := mpmb.NewBuilder(6, 6)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			b.AddEdge(uint32(u), uint32(v), float64(1+(u*7+v*3)%5), 0.3+0.1*float64((u+2*v)%6))
		}
	}
	g := b.Build()
	cands, err := core.AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []func() *core.ExecJob{
		func() *core.ExecJob {
			return &core.ExecJob{Kind: core.ExecOptimized, Graph: g, Cands: cands, Seed: 11, Units: 512}
		},
		func() *core.ExecJob {
			return &core.ExecJob{Kind: core.ExecKarpLuby, Graph: g, Cands: cands, Seed: 11, Units: cands.Len(),
				KL: core.KLOptions{BaseTrials: 64, Mu: 0.05}}
		},
	}

	coord := NewCoordinator()
	coord.LeaseUnits = 32
	// No straggler stealing: a worker granted the other's outstanding
	// range could finish the job before the other fetched its set, whose
	// fetch would then be refused or never made. The chaos tests cover
	// stealing.
	coord.MaxGrants = 1
	hs := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		hs.Close()
	}()
	// Each worker holds its first lease until the other has one too, so
	// both take part in the first job.
	both := make(chan struct{})
	var arrived atomic.Int32
	fetches := make([]*fetchCounter, 2)
	for i := range fetches {
		fetches[i] = &fetchCounter{}
		first := true
		w := &Worker{
			Base:   hs.URL,
			Name:   fmt.Sprintf("w%d", i),
			Pool:   1,
			Client: &http.Client{Transport: fetches[i], Timeout: 30 * time.Second},
			testFaults: &workerFaults{granted: func(*LeaseReply) {
				if !first {
					return
				}
				first = false
				if arrived.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
				case <-time.After(5 * time.Second):
				}
			}},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	for _, job := range jobs {
		want, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(job())
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Executor{C: coord}).ExecuteTrials(job())
		if err != nil {
			t.Fatalf("%v job: %v", job().Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v job: distributed state diverges from LocalExecutor\n got: %+v\nwant: %+v", job().Kind, got, want)
		}
	}
	for i, f := range fetches {
		if n := f.n.Load(); n != 1 {
			t.Errorf("worker %d fetched the candidate set %d times, want once", i, n)
		}
	}
}

// TestChaosJobCollectedBeforeCandidateFetch is
// TestChaosJobCollectedBeforeGraphFetch for the candidate set: a worker
// that already holds the graph is granted a lease on an optimized job
// that is collected before the worker fetches its set. The fetch's 404
// must drop the lease, count a graph error and leave the worker serving.
func TestChaosJobCollectedBeforeCandidateFetch(t *testing.T) {
	g := meshGraph(t)
	coord := NewCoordinator()
	coord.LeaseUnits = 64
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	reg := telemetry.NewRegistry()
	collected := false
	w := &Worker{Base: hs.URL, Name: "late", Pool: 1, Reg: reg, testFaults: &workerFaults{
		granted: func(rep *LeaseReply) {
			if collected || core.ExecKind(rep.Job.Kind) != core.ExecOptimized {
				return
			}
			collected = true
			if _, err := coord.collect(rep.Job.Job); err != nil {
				t.Errorf("collect: %v", err)
			}
		},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	defer func() { cancel(); <-errc }()

	// An OS run hands the worker the graph.
	opt := baseOptions(mpmb.MethodOS)
	opt.Executor = &Executor{C: coord}
	if _, err := mpmb.Search(g, opt); err != nil {
		t.Fatal(err)
	}
	cands, err := core.AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.register(&core.ExecJob{Kind: core.ExecOptimized, Graph: g, Cands: cands, Seed: 7, Units: 128}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for reg.Snapshot().DistGraphErrors == 0 {
		select {
		case err := <-errc:
			errc <- err // for the deferred teardown
			t.Fatalf("worker ended holding a collected job's lease: %v", err)
		case <-deadline:
			t.Fatal("worker never dropped the collected job's lease")
		case <-time.After(time.Millisecond):
		}
	}

	// The same worker serves an OLS run to a bit-identical Result.
	seq, err := mpmb.Search(g, baseOptions(mpmb.MethodOLS))
	if err != nil {
		t.Fatal(err)
	}
	opt = baseOptions(mpmb.MethodOLS)
	opt.Executor = &Executor{C: coord}
	got, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("Result after the dropped lease diverges\n got: %+v\nwant: %+v", got, seq)
	}
	if m := reg.Snapshot(); m.DistGraphErrors != 1 || m.DistExecErrors != 0 {
		t.Fatalf("graph/exec errors = %d/%d, want 1/0", m.DistGraphErrors, m.DistExecErrors)
	}
}

// TestGoldenV1CompleteSkews: completions pinned from the version 1 wire,
// whose job specs named the run for workers to re-prepare its candidates,
// and from the version 2 wire, whose payloads were JSON lists, must be
// refused as version skew.
func TestGoldenV1CompleteSkews(t *testing.T) {
	for _, name := range []string{"lease-complete-os-v1.json", "lease-complete-os-v2.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeLeaseComplete(data); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("%s: err = %v, want ErrVersionSkew", name, err)
		}
	}
}

// TestWorkerGraphCacheBounded: a worker leasing jobs on more graphs than
// maxWorkerCache holds at most that many graphs and candidate sets at any
// lease, evicts the least recently used graph, so a graph leased between
// the others is fetched once, drops the candidate sets of an evicted graph
// with it, and still returns every job's LocalExecutor state.
func TestWorkerGraphCacheBounded(t *testing.T) {
	coord := NewCoordinator()
	coord.LeaseUnits = 16
	var fetches atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/graph" {
			fetches.Add(1)
		}
		coord.Handler().ServeHTTP(rw, r)
	}))
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Base: hs.URL, Name: "w0", Pool: 1}
	// held lists the candidate sets the worker holds; cached checks the
	// cache bounds and that every cached candidate set is on a cached
	// graph.
	held := func() map[uint32]*core.Candidates {
		sets := map[uint32]*core.Candidates{}
		w.cands.DeleteFunc(func(crc uint32, c *core.Candidates) bool {
			sets[crc] = c
			return false
		})
		return sets
	}
	cached := func() error {
		var gs []*bigraph.Graph
		w.graphs.DeleteFunc(func(_ uint32, g *bigraph.Graph) bool {
			gs = append(gs, g)
			return false
		})
		if n := len(gs); n > maxWorkerCache {
			return fmt.Errorf("worker holds %d graphs, cap %d", n, maxWorkerCache)
		}
		sets := held()
		if n := len(sets); n > maxWorkerCache {
			return fmt.Errorf("worker holds %d candidate sets, cap %d", n, maxWorkerCache)
		}
		for crc, c := range sets {
			if !slices.Contains(gs, c.G) {
				return fmt.Errorf("candidate set %08x is on an evicted graph", crc)
			}
		}
		return nil
	}
	w.testFaults = &workerFaults{granted: func(*LeaseReply) {
		if err := cached(); err != nil {
			t.Error(err)
		}
	}}
	stopped := make(chan error, 1)
	go func() { stopped <- w.Run(ctx) }()
	graphs := make([]*bigraph.Graph, maxWorkerCache+1)
	for i := range graphs {
		b := mpmb.NewBuilder(4, 4)
		for u := 0; u < 4; u++ {
			for v := 0; v < 4; v++ {
				b.AddEdge(uint32(u), uint32(v), float64(1+u+v+i), 0.7)
			}
		}
		graphs[i] = b.Build()
	}
	// Graph 0 comes first and is leased between the others, and graph 1
	// comes with a candidate set, so graph 4 evicts graph 1 and its set.
	steps := []struct {
		graph int
		kind  core.ExecKind
	}{{0, core.ExecOS}, {1, core.ExecOptimized}, {0, core.ExecOS}, {2, core.ExecOS}, {0, core.ExecOS},
		{3, core.ExecOS}, {0, core.ExecOS}, {4, core.ExecOS}, {0, core.ExecOptimized}}
	for _, st := range steps {
		g := graphs[st.graph]
		var cands *core.Candidates
		if st.kind == core.ExecOptimized {
			var err error
			if cands, err = core.AllBackboneCandidates(g); err != nil {
				t.Fatal(err)
			}
		}
		job := func() *core.ExecJob {
			return &core.ExecJob{Kind: st.kind, Graph: g, Cands: cands, Seed: 3, Units: 32}
		}
		want, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(job())
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Executor{C: coord}).ExecuteTrials(job())
		if err != nil {
			t.Fatalf("graph %d: %v", st.graph, err)
		}
		if !reflect.DeepEqual(got.Export(), want.Export()) || got.Done != want.Done {
			t.Fatalf("graph %d: distributed state diverges from LocalExecutor", st.graph)
		}
	}
	cancel()
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if err := cached(); err != nil {
		t.Fatal(err)
	}
	if n := fetches.Load(); n != int32(len(graphs)) {
		t.Fatalf("worker fetched graphs %d times, want once for each of %d", n, len(graphs))
	}
	if n := len(held()); n != 1 {
		t.Fatalf("worker holds %d candidate sets, want graph 0's", n)
	}
}
