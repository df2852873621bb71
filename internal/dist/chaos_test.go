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
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// TestChaosWorkerDeathMidLease kills a worker while it holds a lease and
// forces the TTL-expiry path (MaxGrants 1 disables stealing, so only
// expiry can reissue the abandoned range). The survivor must finish the
// run with a bit-identical Result and exact terminal counters — the
// abandoned lease is recomputed, never lost, never double-counted.
func TestChaosWorkerDeathMidLease(t *testing.T) {
	g := meshGraph(t)
	opt := baseOptions(mpmb.MethodOS)
	obs := mpmb.NewObserver(mpmb.ObserverConfig{})
	opt.Observer = obs
	seq, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	obs.Close()

	coord := NewCoordinator()
	coord.LeaseUnits = 64
	coord.LeaseTTL = 100 * time.Millisecond
	coord.MaxGrants = 1 // no stealing: death recovery must go through expiry
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// The victim dies the moment its first lease is granted, abandoning it.
	victim := &Worker{Base: hs.URL, Name: "victim", Pool: 1,
		testFaults: &workerFaults{dieAfterLeases: 1}}
	// The survivor starts only after the victim is dead, so the victim's
	// range is provably held by a dead worker while the survivor works.
	survivor := &Worker{Base: hs.URL, Name: "survivor", Pool: 1}
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim.Run(ctx)
		survivor.Run(ctx)
	}()
	defer func() { cancel(); wg.Wait() }()

	dopt := baseOptions(mpmb.MethodOS)
	dobs := mpmb.NewObserver(mpmb.ObserverConfig{})
	dopt.Observer = dobs
	dopt.Executor = &Executor{C: coord}
	got, err := mpmb.Search(g, dopt)
	if err != nil {
		t.Fatal(err)
	}
	dobs.Close()

	if !reflect.DeepEqual(got.TopK(10), seq.TopK(10)) {
		t.Fatalf("post-death Result diverges\n got: %+v\nwant: %+v", got.TopK(10), seq.TopK(10))
	}
	// Exact trial accounting: the abandoned range ran exactly once in the
	// merged prefix.
	if got.Metrics.Trials != seq.Metrics.Trials {
		t.Fatalf("Trials = %d, want %d (lost or double-counted range)", got.Metrics.Trials, seq.Metrics.Trials)
	}
	if got.Metrics.TrialHits != seq.Metrics.TrialHits {
		t.Fatalf("TrialHits = %d, want %d", got.Metrics.TrialHits, seq.Metrics.TrialHits)
	}
}

// TestChaosDroppedCompleteRecovers drops a completion message in flight.
// The range's lease stays outstanding, so the worker itself re-acquires
// it through straggler stealing and recomputes it; the run still ends
// bit-identical.
func TestChaosDroppedCompleteRecovers(t *testing.T) {
	g := meshGraph(t)
	seq, err := mpmb.Search(g, baseOptions(mpmb.MethodOLS))
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator()
	coord.LeaseUnits = 64
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dropped atomic.Int32
	w := &Worker{Base: hs.URL, Name: "lossy", Pool: 1, testFaults: &workerFaults{
		// Drop the very first completion; deliver everything after.
		interceptComplete: func(*LeaseComplete) bool { return dropped.Add(1) != 1 },
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(ctx) }()
	defer func() { cancel(); wg.Wait() }()

	opt := baseOptions(mpmb.MethodOLS)
	opt.Executor = &Executor{C: coord}
	got, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Load() < 2 {
		t.Fatal("fault seam never dropped a completion; test is vacuous")
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("post-drop Result diverges from sequential\n got: %+v\nwant: %+v", got, seq)
	}
}

// TestChaosJobCollectedBeforeGraphFetch collects a job after a worker was
// granted a lease on it but before the worker fetched its graph, as when
// a run finishes while a late or reissued lease is still out. The fetch
// then answers 404 "no such job": the worker must drop the lease, count a
// graph error and keep serving, not end its run with the error.
func TestChaosJobCollectedBeforeGraphFetch(t *testing.T) {
	g := meshGraph(t)
	coord := NewCoordinator()
	coord.LeaseUnits = 64
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()

	gone, _, err := coord.register(&core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 7, Units: 128,
		Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var served atomic.Int32
	w := &Worker{Base: hs.URL, Name: "late", Pool: 1, Reg: reg, testFaults: &workerFaults{
		granted: func(rep *LeaseReply) {
			if rep.Job.Job != gone {
				served.Add(1)
				return
			}
			if _, err := coord.collect(gone); err != nil {
				t.Errorf("collect: %v", err)
			}
		},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	defer func() { cancel(); <-errc }()

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

	// The same worker serves the next run to a bit-identical Result.
	seq, err := mpmb.Search(g, baseOptions(mpmb.MethodOS))
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOptions(mpmb.MethodOS)
	opt.Executor = &Executor{C: coord}
	got, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("Result after the dropped lease diverges\n got: %+v\nwant: %+v", got, seq)
	}
	if served.Load() == 0 {
		t.Fatal("the worker served no lease of the second run; test is vacuous")
	}
	if m := reg.Snapshot(); m.DistGraphErrors != 1 || m.DistExecErrors != 0 {
		t.Fatalf("graph/exec errors = %d/%d, want 1/0", m.DistGraphErrors, m.DistExecErrors)
	}
}

// executeRange mimics a worker's execution of one leased range without
// HTTP: a fresh per-range registry, the LocalExecutor on the sub-range,
// and the terminal snapshot as the counter delta.
func executeRange(t *testing.T, job *core.ExecJob, lo, hi int) *LeaseComplete {
	t.Helper()
	reg := telemetry.NewRegistry()
	sub := &core.ExecJob{
		Kind:    job.Kind,
		Graph:   job.Graph,
		Cands:   job.Cands,
		Seed:    job.Seed,
		Units:   hi,
		Start:   lo - 1,
		OS:      job.OS,
		KL:      job.KL,
		Probe:   &telemetry.Probe{Reg: reg, Method: job.Spec.Method},
		Workers: 1,
	}
	res, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(sub)
	if err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	return &LeaseComplete{
		V: Version, Worker: "replay", Lo: lo, Hi: hi,
		Payload: RangePayload{Counts: res.CountsSnapshot()},
		Counters: Counters{
			Trials: m.Trials, TrialHits: m.TrialHits,
			EdgesScanned: m.EdgesScanned, EdgesPruned: m.EdgesPruned,
			CandScanned: m.CandScanned, CandPruned: m.CandPruned,
		},
	}
}

// countMap folds a ButterflyCount slice into a map for order-insensitive
// but value-exact comparison.
func countMap(counts []core.ButterflyCount) map[mpmb.Butterfly][2]float64 {
	m := make(map[mpmb.Butterfly][2]float64, len(counts))
	for _, e := range counts {
		m[e.B] = [2]float64{float64(e.Count), e.Weight}
	}
	return m
}

// TestChaosReorderedAndDuplicatedCompletes drives the coordinator's
// merge directly: every range's completion is delivered in REVERSE
// order, then every message is delivered AGAIN. The merge must be
// idempotent (duplicates acked with Accepted=false) and order-blind
// (the collected aggregate equals a straight local run).
func TestChaosReorderedAndDuplicatedCompletes(t *testing.T) {
	g := meshGraph(t)
	const units = 160
	mk := func() *core.ExecJob {
		return &core.ExecJob{
			Kind: core.ExecOS, Graph: g, Seed: 7, Units: units, Start: 0,
			Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: units},
		}
	}
	want, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(mk())
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator()
	coord.LeaseUnits = 32
	coord.MaxGrants = 1 // no stealing: each range is granted exactly once
	job := mk()
	id, done, err := coord.register(job)
	if err != nil {
		t.Fatal(err)
	}
	// Drain every fresh lease up front.
	var msgs []*LeaseComplete
	for {
		rep := coord.grant("replay")
		if rep.Status != LeaseGranted {
			break
		}
		msg := executeRange(t, job, rep.Lo, rep.Hi)
		msg.Job, msg.Lease = id, rep.Lease
		msgs = append(msgs, msg)
	}
	if len(msgs) != (units+31)/32 {
		t.Fatalf("granted %d leases, want %d", len(msgs), (units+31)/32)
	}

	// Deliver in reverse: nothing merges until the first range lands.
	for i := len(msgs) - 1; i >= 0; i-- {
		rep, err := coord.complete(msgs[i])
		if err != nil {
			t.Fatalf("complete %d..%d: %v", msgs[i].Lo, msgs[i].Hi, err)
		}
		if !rep.Accepted {
			t.Fatalf("first delivery of %d..%d not accepted", msgs[i].Lo, msgs[i].Hi)
		}
	}
	select {
	case <-done:
	default:
		t.Fatal("all ranges delivered but the job did not complete")
	}
	// Deliver everything again: every duplicate must be refused.
	for _, msg := range msgs {
		rep, err := coord.complete(msg)
		if err != nil {
			t.Fatalf("duplicate %d..%d: %v", msg.Lo, msg.Hi, err)
		}
		if rep.Accepted {
			t.Fatalf("duplicate of %d..%d was accepted: double merge", msg.Lo, msg.Hi)
		}
		if !rep.JobDone {
			t.Fatalf("duplicate ack of a finished job did not say JobDone")
		}
	}

	got, err := coord.collect(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != units {
		t.Fatalf("Done = %d, want %d", got.Done, units)
	}
	if !reflect.DeepEqual(countMap(got.CountsSnapshot()), countMap(want.CountsSnapshot())) {
		t.Fatalf("reordered+duplicated merge diverges from local run\n got: %v\nwant: %v",
			got.CountsSnapshot(), want.CountsSnapshot())
	}
}

// TestChaosLateCompletionOfReissuedLease exercises the raciest protocol
// corner: a lease expires, the range is reissued and completed by the
// new holder, and THEN the original holder's late completion arrives.
// The late message must be refused as a duplicate without disturbing the
// merged state.
func TestChaosLateCompletionOfReissuedLease(t *testing.T) {
	g := meshGraph(t)
	const units = 64
	job := &core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 3, Units: units, Start: 0,
		Spec: core.ExecSpec{Method: "os", Seed: 3, Trials: units},
	}
	coord := NewCoordinator()
	coord.LeaseUnits = 32
	coord.LeaseTTL = time.Nanosecond // every lease is instantly expirable
	id, _, err := coord.register(job)
	if err != nil {
		t.Fatal(err)
	}
	first := coord.grant("slow")
	if first.Status != LeaseGranted {
		t.Fatalf("no lease granted: %+v", first)
	}
	// TTL passes; the same range is reissued to a faster worker.
	time.Sleep(time.Millisecond)
	second := coord.grant("fast")
	if second.Status != LeaseGranted || second.Lo != first.Lo || second.Hi != first.Hi {
		t.Fatalf("expired range not reissued: first %d..%d, second %+v", first.Lo, first.Hi, second)
	}
	msg := executeRange(t, job, second.Lo, second.Hi)
	msg.Job, msg.Lease = id, second.Lease
	if rep, err := coord.complete(msg); err != nil || !rep.Accepted {
		t.Fatalf("fast completion refused: %+v, %v", rep, err)
	}
	// The slow worker's identical-range completion limps in afterwards.
	late := executeRange(t, job, first.Lo, first.Hi)
	late.Job, late.Lease = id, first.Lease
	rep, err := coord.complete(late)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("late completion of a reissued lease was double-merged")
	}
	res, err := coord.collect(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != first.Hi {
		t.Fatalf("prefix = %d, want %d", res.Done, first.Hi)
	}
}

// TestChaosMalformedCompletesRejected sends structurally plausible but
// arithmetically impossible completions; all must be refused with typed
// errors and leave the merge untouched.
func TestChaosMalformedCompletesRejected(t *testing.T) {
	g := meshGraph(t)
	job := &core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 3, Units: 100, Start: 0,
		Spec: core.ExecSpec{Method: "os", Seed: 3, Trials: 100},
	}
	coord := NewCoordinator()
	coord.LeaseUnits = 32
	id, _, err := coord.register(job)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		lo, hi int
	}{
		{"misaligned lo", 2, 33},
		{"short range", 1, 16},
		{"long range", 1, 64},
		{"past units", 97, 128},
		{"clip ignored", 97, 100 + 1},
	}
	for _, tc := range bad {
		msg := &LeaseComplete{V: Version, Job: id, Lo: tc.lo, Hi: tc.hi}
		if _, err := coord.complete(msg); err == nil {
			t.Errorf("%s (%d..%d): accepted", tc.name, tc.lo, tc.hi)
		}
	}
	// The one legal clipped tail range is 97..100.
	msg := executeRange(t, job, 97, 100)
	msg.Job = id
	if rep, err := coord.complete(msg); err != nil || !rep.Accepted {
		t.Fatalf("legal tail range refused: %+v, %v", rep, err)
	}
	res, err := coord.collect(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 0 {
		t.Fatalf("prefix moved to %d on an out-of-order tail; want 0", res.Done)
	}
	_ = fmt.Sprintf
}
