package dist

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// drainOutcome carries an ExecuteTrials return across the test goroutine.
type drainOutcome struct {
	res *core.ExecResult
	err error
}

// startExecutor runs e.ExecuteTrials(job) in a goroutine and returns the
// channel its outcome lands on.
func startExecutor(e *Executor, job *core.ExecJob) chan drainOutcome {
	resc := make(chan drainOutcome, 1)
	go func() {
		r, err := e.ExecuteTrials(job)
		resc <- drainOutcome{r, err}
	}()
	return resc
}

// grantPoll claims a lease as a hand-driven worker, polling until the
// executor goroutine has registered its job.
func grantPoll(t *testing.T, coord *Coordinator, worker string) *LeaseReply {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := coord.grant(worker)
		if rep.Status == LeaseGranted {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted; executor never registered its job")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainCommitsInFlightLease is the anti-livelock regression: an
// interrupt that fires while a worker holds a lease must not abandon
// that lease. The executor drains — the coordinator freezes fresh
// grants but keeps accepting completions — so the in-flight range
// merges into the collected prefix. Before the drain existed, any
// interrupt cadence shorter than one lease's execution time (e.g.
// mpmb-serve's checkpoint slices on a large graph) collected an
// unchanged prefix every slice and the job livelocked at zero progress.
func TestDrainCommitsInFlightLease(t *testing.T) {
	g := meshGraph(t)
	const units = 96
	job := &core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 7, Units: units, Start: 0,
		Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: units},
	}
	var interrupted atomic.Bool
	job.Interrupt = func() bool { return interrupted.Load() }

	coord := NewCoordinator()
	coord.LeaseUnits = 32
	coord.MaxGrants = 1 // no stealing: the lease book stays single-holder
	resc := startExecutor(&Executor{C: coord, Poll: time.Millisecond}, job)
	rep := grantPoll(t, coord, "w")

	// Interrupt with the lease in flight. The executor must drain, not
	// return: fresh ranges are frozen, but the claimed one is still owed.
	interrupted.Store(true)
	time.Sleep(30 * time.Millisecond)
	select {
	case out := <-resc:
		t.Fatalf("executor returned mid-drain with an outstanding lease (res %+v, err %v)", out.res, out.err)
	default:
	}
	if got := coord.grant("other"); got.Status != LeaseWait {
		t.Fatalf("draining job granted a fresh range %d..%d", got.Lo, got.Hi)
	}

	// The worker lands its completion; the drain settles and the executor
	// collects a prefix that includes the formerly in-flight range.
	msg := executeRange(t, job, rep.Lo, rep.Hi)
	msg.Job, msg.Lease = rep.Job.Job, rep.Lease
	if crep, err := coord.complete(msg); err != nil || !crep.Accepted {
		t.Fatalf("completion during drain refused: %+v, %v", crep, err)
	}
	var out drainOutcome
	select {
	case out = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("executor did not return after the drain settled")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Done != rep.Hi {
		t.Fatalf("Done = %d, want %d: in-flight lease was abandoned on interrupt", out.res.Done, rep.Hi)
	}
	want, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(&core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 7, Units: rep.Hi, Start: 0,
		Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: units},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(countMap(out.res.CountsSnapshot()), countMap(want.CountsSnapshot())) {
		t.Fatalf("drained prefix diverges from a local run of the same prefix\n got: %v\nwant: %v",
			out.res.CountsSnapshot(), want.CountsSnapshot())
	}
}

// TestDrainDeadlineBoundsDeadHolder: when the lease holder died, the
// drain can never settle — DrainWait bounds the wait so an interrupted
// run still returns promptly, with the honest (here: empty) prefix.
func TestDrainDeadlineBoundsDeadHolder(t *testing.T) {
	g := meshGraph(t)
	job := &core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 7, Units: 64, Start: 0,
		Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: 64},
	}
	var interrupted atomic.Bool
	job.Interrupt = func() bool { return interrupted.Load() }

	coord := NewCoordinator()
	coord.LeaseUnits = 32
	resc := startExecutor(&Executor{C: coord, Poll: time.Millisecond, DrainWait: 50 * time.Millisecond}, job)
	grantPoll(t, coord, "doomed") // claimed, never completed

	start := time.Now()
	interrupted.Store(true)
	var out drainOutcome
	select {
	case out = <-resc:
	case <-time.After(10 * time.Second):
		t.Fatal("executor never gave up on the dead holder's lease")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Done != 0 {
		t.Fatalf("Done = %d, want 0: nothing ever completed", out.res.Done)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v; DrainWait=50ms did not bound it", elapsed)
	}
}
