package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// meshGraph is a deterministic dense-ish fixture: big enough that every
// method finds butterflies and a run spans many leases, small enough to
// stay fast under -race.
func meshGraph(t testing.TB) *mpmb.Graph {
	t.Helper()
	const nl, nr = 24, 24
	b := mpmb.NewBuilder(nl, nr)
	for u := 0; u < nl; u++ {
		for k := 0; k < 8; k++ {
			v := (u*7 + k*5) % nr
			w := float64(1 + (u*13+v*29)%50)
			p := 0.2 + 0.6*float64((u*31+v*17)%100)/100
			b.AddEdge(uint32(u), uint32(v), w, p)
		}
	}
	return b.Build()
}

// fleet stands up a coordinator behind a real HTTP server plus n
// in-process workers, torn down with the test.
func fleet(t testing.TB, coord *Coordinator, n int) {
	t.Helper()
	hs := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Base: hs.URL, Name: fmt.Sprintf("w%d", i), Pool: 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		hs.Close()
	})
}

// distMethods are the executor-capable search methods.
var distMethods = []mpmb.Method{mpmb.MethodOS, mpmb.MethodOLS, mpmb.MethodOLSKL}

func baseOptions(method mpmb.Method) mpmb.Options {
	return mpmb.Options{
		Method:     method,
		Trials:     1500,
		PrepTrials: 40,
		Seed:       7,
		Mu:         0.05,
	}
}

// TestConformanceBitIdentical is the core acceptance bar: a coordinator
// plus {1,2,4} workers must return a Result that is bit-identical —
// reflect.DeepEqual over the whole struct, exact float64 estimates
// included — to the sequential run with the same options.
func TestConformanceBitIdentical(t *testing.T) {
	g := meshGraph(t)
	for _, method := range distMethods {
		seq, err := mpmb.Search(g, baseOptions(method))
		if err != nil {
			t.Fatalf("%s sequential: %v", method, err)
		}
		if _, ok := seq.Best(); !ok {
			t.Fatalf("%s sequential found nothing; fixture too sparse", method)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dw", method, workers), func(t *testing.T) {
				coord := NewCoordinator()
				coord.LeaseUnits = 64 // force many leases per run
				fleet(t, coord, workers)
				opt := baseOptions(method)
				opt.Executor = &Executor{C: coord}
				got, err := mpmb.Search(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("distributed Result diverges from sequential\n got: %+v\nwant: %+v", got, seq)
				}
			})
		}
	}
}

// TestConformanceCounters checks terminal counter identity: the
// deterministic counters — exact functions of which trials ran, not of
// where or how fast — must match the sequential observer's exactly.
// Time-derived telemetry (TrialNs, Workers, leader gauges) is excluded
// by construction: only the deterministic fields are compared.
func TestConformanceCounters(t *testing.T) {
	g := meshGraph(t)
	type deterministic struct {
		Trials, TrialHits, PrepTrials                      int64
		EdgesScanned, EdgesPruned, CandScanned, CandPruned int64
		Candidates                                         int64
	}
	pick := func(m *mpmb.Metrics) deterministic {
		return deterministic{
			Trials: m.Trials, TrialHits: m.TrialHits, PrepTrials: m.PrepTrials,
			EdgesScanned: m.EdgesScanned, EdgesPruned: m.EdgesPruned,
			CandScanned: m.CandScanned, CandPruned: m.CandPruned,
			Candidates: m.Candidates,
		}
	}
	for _, method := range distMethods {
		t.Run(string(method), func(t *testing.T) {
			opt := baseOptions(method)
			obs := mpmb.NewObserver(mpmb.ObserverConfig{})
			opt.Observer = obs
			seq, err := mpmb.Search(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			obs.Close()
			want := pick(seq.Metrics)
			if want.Trials == 0 {
				t.Fatal("sequential run recorded no trials; observer broken")
			}

			coord := NewCoordinator()
			coord.LeaseUnits = 64
			fleet(t, coord, 3)
			dopt := baseOptions(method)
			dobs := mpmb.NewObserver(mpmb.ObserverConfig{})
			dopt.Observer = dobs
			dopt.Executor = &Executor{C: coord}
			dres, err := mpmb.Search(g, dopt)
			if err != nil {
				t.Fatal(err)
			}
			dobs.Close()
			if got := pick(dres.Metrics); got != want {
				t.Fatalf("distributed counters diverge\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// coordProgress reports the merged prefix and registered start of the
// single active job, if any.
func coordProgress(c *Coordinator) (prefix, start int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		return j.prefix, j.spec.Start, true
	}
	return 0, 0, false
}

// TestConformanceMidRunResume cancels a distributed run once the
// coordinator has merged a strict prefix, checkpoints the partial
// Result, then finishes it — again distributed — and requires the final
// Result bit-identical to the never-interrupted sequential run.
func TestConformanceMidRunResume(t *testing.T) {
	g := meshGraph(t)
	for _, method := range distMethods {
		t.Run(string(method), func(t *testing.T) {
			seq, err := mpmb.Search(g, baseOptions(method))
			if err != nil {
				t.Fatal(err)
			}

			// Narrow leases: ols-kl's units are candidates (far fewer than
			// trials), and the interrupt must land between leases. A single
			// worker with an injected hold makes the interruption
			// deterministic: it completes the first range, then parks its
			// second completion until the executor has collected — so the
			// drain cannot merge it, and the coordinator's merged prefix is a
			// strict, non-empty prefix when the executor collects it.
			coord := NewCoordinator()
			coord.LeaseUnits = 4
			hs := httptest.NewServer(coord.Handler())
			defer hs.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			collected := make(chan struct{})
			var completes int32
			w := &Worker{Base: hs.URL, Pool: 1, testFaults: &workerFaults{
				interceptComplete: func(*LeaseComplete) bool {
					if atomic.AddInt32(&completes, 1) == 2 {
						select {
						case <-collected:
						case <-time.After(5 * time.Second):
						}
					}
					return true
				},
			}}
			workerCtx, stopWorker := context.WithCancel(context.Background())
			var wwg sync.WaitGroup
			wwg.Add(1)
			go func() { defer wwg.Done(); w.Run(workerCtx) }()
			defer func() { stopWorker(); wwg.Wait() }()
			// Cancel as soon as the sampling-phase job has merged at least
			// one range; the held second completion guarantees it is not all
			// of them.
			go func() {
				for {
					if prefix, start, ok := coordProgress(coord); ok && prefix > start {
						cancel()
						return
					}
					select {
					case <-ctx.Done():
						return
					case <-time.After(100 * time.Microsecond):
					}
				}
			}()
			opt := baseOptions(method)
			// The held lease never lands before the collect, so the drain
			// waits out its bound; keep it short.
			opt.Executor = &Executor{C: coord, Poll: time.Millisecond, DrainWait: 50 * time.Millisecond}
			partial, err := mpmb.SearchContext(ctx, g, opt)
			close(collected)
			if err != nil {
				t.Fatal(err)
			}
			if !partial.Partial {
				t.Fatal("run completed despite the held completion; expected a partial result")
			}
			if partial.Checkpoint == nil {
				t.Fatal("partial distributed run carried no checkpoint")
			}
			if partial.TrialsDone <= 0 || partial.TrialsDone >= opt.Trials {
				t.Fatalf("TrialsDone = %d, want a strict prefix of %d", partial.TrialsDone, opt.Trials)
			}

			// Finish the run through a fresh coordinator and fleet.
			coord2 := NewCoordinator()
			coord2.LeaseUnits = 4
			fleet(t, coord2, 4)
			ropt := baseOptions(method)
			ropt.Resume = partial.Checkpoint
			ropt.Executor = &Executor{C: coord2}
			final, err := mpmb.Search(g, ropt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(final, seq) {
				t.Fatalf("resumed distributed Result diverges from sequential\n got: %+v\nwant: %+v", final, seq)
			}
		})
	}
}

// TestExecutorRejectsAdaptive pins the Options contract: adaptive
// supervision cannot ride an explicit executor, and non-sampling
// methods reject it outright.
func TestExecutorRejectsAdaptive(t *testing.T) {
	g := meshGraph(t)
	coord := NewCoordinator()
	opt := baseOptions(mpmb.MethodOLS)
	opt.Executor = &Executor{C: coord}
	opt.AuditEvery = 100
	if _, err := mpmb.Search(g, opt); err == nil {
		t.Fatal("adaptive options accepted alongside an explicit Executor")
	}
	opt = baseOptions(mpmb.MethodExact)
	opt.Trials, opt.PrepTrials = 0, 0
	opt.Executor = &Executor{C: coord}
	if _, err := mpmb.Search(g, opt); err == nil {
		t.Fatal("exact method accepted an Executor")
	}
}

// TestExecutorRefusesLocalOnlyJobs: the workers rebuild a job from its
// wire spec, which carries no anchor and no estimator ablation, so the
// executor must refuse such a job with an error instead of running the
// global kernel or the plain estimator in its place.
func TestExecutorRefusesLocalOnlyJobs(t *testing.T) {
	g := meshGraph(t)
	spec := core.ExecSpec{Method: "os", Seed: 7, Trials: 100}
	for name, job := range map[string]*core.ExecJob{
		"anchor": {Kind: core.ExecOS, Graph: g, Seed: 7, Units: 100, Spec: spec,
			Anchor: core.Anchor{Kind: core.AnchorLeft, U: 0}},
		"ablation": {Kind: core.ExecOptimized, Graph: g, Seed: 7, Units: 100, Spec: spec,
			Optimized: core.OptimizedOptions{EagerSampling: true}},
	} {
		ex := &Executor{C: NewCoordinator()}
		if _, err := ex.ExecuteTrials(job); err == nil {
			t.Errorf("%s: distributed executor accepted a job its workers cannot reproduce", name)
		}
	}
}
