package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// TestExecutorFallbackNoWorkers: with zero workers joined and a Fallback
// configured, the executor must degrade to the in-process fallback
// worker after FleetGrace, finish the run bit-identically, and report
// the degradation through FellBack.
func TestExecutorFallbackNoWorkers(t *testing.T) {
	g := meshGraph(t)
	for _, method := range distMethods {
		t.Run(string(method), func(t *testing.T) {
			seq, err := mpmb.Search(g, baseOptions(method))
			if err != nil {
				t.Fatal(err)
			}
			coord := NewCoordinator()
			coord.LeaseUnits = 64
			ex := &Executor{
				C:          coord,
				Poll:       time.Millisecond,
				Fallback:   &core.LocalExecutor{Workers: 2},
				FleetGrace: 30 * time.Millisecond,
			}
			opt := baseOptions(method)
			opt.Executor = ex
			got, err := mpmb.Search(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if fb, _ := ex.FellBack(); !fb {
				t.Fatal("fallback never engaged with zero workers")
			}
			if !reflect.DeepEqual(got, seq) {
				t.Fatalf("degraded Result diverges from sequential\n got: %+v\nwant: %+v", got, seq)
			}
		})
	}
}

// TestExecutorNoFallbackWithLiveFleet: a fleet that is actually talking
// to the coordinator must keep the fallback disengaged, however small
// the job.
func TestExecutorNoFallbackWithLiveFleet(t *testing.T) {
	g := meshGraph(t)
	seq, err := mpmb.Search(g, baseOptions(mpmb.MethodOS))
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator()
	coord.LeaseUnits = 64
	fleet(t, coord, 2)
	ex := &Executor{
		C:          coord,
		Fallback:   &core.LocalExecutor{Workers: 2},
		FleetGrace: 2 * time.Second,
	}
	opt := baseOptions(mpmb.MethodOS)
	opt.Executor = ex
	got, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fb, _ := ex.FellBack(); fb {
		t.Fatal("fallback engaged despite a live fleet")
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("Result diverges from sequential\n got: %+v\nwant: %+v", got, seq)
	}
}

// TestExecutorNoFallbackWhileLeaseHeld: a worker crunching a long span
// makes no HTTP calls, so the wire goes quiet for longer than
// FleetGrace while work is very much in progress. An unexpired lease
// must count as fleet liveness — the fallback stays out and the run
// completes on the slow worker alone.
func TestExecutorNoFallbackWhileLeaseHeld(t *testing.T) {
	g := meshGraph(t)
	opt := baseOptions(mpmb.MethodOS)
	seq, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator()
	coord.LeaseUnits = 512 // few, long-held leases
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	ex := &Executor{
		C:          coord,
		Poll:       time.Millisecond,
		Fallback:   &core.LocalExecutor{Workers: 2},
		FleetGrace: 30 * time.Millisecond,
	}

	// A deliberately slow worker: it leases over HTTP like a real one,
	// then sits silent well past the grace before completing each span.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := &Transport{}
		for ctx.Err() == nil {
			var rep LeaseReply
			err := tr.postJSON(ctx, "lease", hs.URL+"/dist/v1/lease",
				&LeaseRequest{V: Version, Worker: "molasses"}, &rep)
			if err != nil || rep.Status != LeaseGranted {
				select {
				case <-ctx.Done():
				case <-time.After(time.Millisecond):
				}
				continue
			}
			select { // wire-silent, lease held: 3x the grace
			case <-ctx.Done():
				return
			case <-time.After(90 * time.Millisecond):
			}
			msg := executeRange(t, &core.ExecJob{
				Kind: core.ExecKind(rep.Job.Kind), Graph: g, Seed: rep.Job.PhaseSeed,
			}, rep.Lo, rep.Hi)
			msg.Job, msg.Lease = rep.Job.Job, rep.Lease
			var ack CompleteReply
			if err := tr.postJSON(ctx, "complete", hs.URL+"/dist/v1/complete", msg, &ack); err != nil {
				return
			}
		}
	}()
	defer func() { cancel(); wg.Wait() }()

	dopt := baseOptions(mpmb.MethodOS)
	dopt.Executor = ex
	got, err := mpmb.Search(g, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if fb, _ := ex.FellBack(); fb {
		t.Fatal("fallback engaged while a worker held an unexpired lease")
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("Result diverges from sequential\n got: %+v\nwant: %+v", got, seq)
	}
}

// TestExecutorFallbackComposesWithRejoiningFleet: workers that join
// AFTER the fallback engaged share the lease book with the in-process
// fallback worker — the composed run must still be bit-identical.
func TestExecutorFallbackComposesWithRejoiningFleet(t *testing.T) {
	g := meshGraph(t)
	opt := baseOptions(mpmb.MethodOS)
	opt.Trials = 20000 // long enough that the late fleet joins mid-run
	seq, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator()
	coord.LeaseUnits = 256
	ex := &Executor{
		C:          coord,
		Poll:       time.Millisecond,
		Fallback:   &core.LocalExecutor{Workers: 1},
		FleetGrace: 20 * time.Millisecond,
	}
	// The fleet arrives late: by then the fallback worker is already
	// leasing spans. Both lease from the same book; the merge does not
	// care who computed a span.
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{Base: hs.URL, Name: fmt.Sprintf("late%d", i), Pool: 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-ctx.Done():
				return
			case <-time.After(60 * time.Millisecond):
			}
			w.Run(ctx)
		}()
	}
	defer func() { cancel(); wg.Wait() }()

	dopt := baseOptions(mpmb.MethodOS)
	dopt.Trials = opt.Trials
	dopt.Executor = ex
	got, err := mpmb.Search(g, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if fb, _ := ex.FellBack(); !fb {
		t.Skip("run finished before the grace elapsed; composition not exercised")
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("fallback+fleet composition diverges from sequential\n got: %+v\nwant: %+v", got, seq)
	}
}
