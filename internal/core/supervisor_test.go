package core

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/interval"
)

// angleStressGraph mirrors the statcheck corpus "angle-classes" case: a
// 2×5 graph engineered so that maximum butterflies often combine an A1
// and an A2 angle. Its exact MPMB leader has P ≈ 0.08, so a single
// preparing trial (PrepTrials=1) virtually never lists it — the
// under-prepared configuration the coverage audits exist to heal.
func angleStressGraph() *bigraph.Graph {
	b := bigraph.NewBuilder(2, 5)
	type mid struct{ w0, w1, p0, p1 float64 }
	mids := []mid{
		{2.5, 2.5, 0.5, 0.6},
		{2, 3, 0.4, 0.5},
		{1.5, 1.5, 0.7, 0.3},
		{1, 2, 0.6, 0.4},
		{0.5, 0.5, 0.8, 0.7},
	}
	for v, m := range mids {
		b.MustAddEdge(0, bigraph.VertexID(v), m.w0, m.p0)
		b.MustAddEdge(1, bigraph.VertexID(v), m.w1, m.p1)
	}
	return b.Build()
}

func sameEstimates(t *testing.T, a, b []Estimate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("estimate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// A supervised run with no adaptive pressure must reproduce the plain
// run bit-for-bit and report a completed stop.
func TestSuperviseCompleteMatchesPlain(t *testing.T) {
	g := figure1Graph()
	const seed, trials, prep = 7, 400, 30
	plainOS, err := OS(g, OSOptions{Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	plainMC, err := MCVP(g, MCVPOptions{Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	plainOLS, err := OLS(g, OLSOptions{PrepTrials: prep, Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	plainKL, err := OLS(g, OLSOptions{PrepTrials: prep, Trials: trials, Seed: seed, UseKarpLuby: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		method string
		want   *Result
	}{
		{"os", plainOS},
		{"mc-vp", plainMC},
		{"ols", plainOLS},
		{"ols-kl", plainKL},
	}
	for _, c := range cases {
		res, err := Supervise(g, SupervisorOptions{
			Method: c.method, Trials: trials, PrepTrials: prep, Seed: seed,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.method, err)
		}
		sameEstimates(t, res.Estimates, c.want.Estimates)
		if res.Adaptive == nil {
			t.Fatalf("%s: no adaptive report", c.method)
		}
		if res.Adaptive.StopReason != StopCompleted {
			t.Errorf("%s: stop reason %q, want completed", c.method, res.Adaptive.StopReason)
		}
		if res.Adaptive.FinalMethod != c.method {
			t.Errorf("%s: final method %q", c.method, res.Adaptive.FinalMethod)
		}
		if res.Partial {
			t.Errorf("%s: unexpected partial result", c.method)
		}
	}
}

// Audits on a well-prepared run find nothing, escalate nothing, and leave
// the estimates identical to the unsupervised run.
func TestSuperviseAuditsCleanRun(t *testing.T) {
	g := figure1Graph()
	const seed, trials, prep = 3, 600, 60
	plain, err := OLS(g, OLSOptions{PrepTrials: prep, Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Supervise(g, SupervisorOptions{
		Method: "ols", Trials: trials, PrepTrials: prep, Seed: seed,
		AuditEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, res.Estimates, plain.Estimates)
	if res.Adaptive.Audits == 0 {
		t.Error("audits enabled but none ran")
	}
	if res.Adaptive.Escalations != 0 || len(res.Adaptive.Transitions) != 0 {
		t.Errorf("clean run escalated: %+v", res.Adaptive)
	}
	if res.Adaptive.StopReason != StopCompleted {
		t.Errorf("stop reason %q", res.Adaptive.StopReason)
	}
}

// Under-prepared OLS (PrepTrials=1) misses the exact MPMB leader; audits
// must escalate the preparing phase until the leader is recovered and
// report every escalation.
func TestSuperviseAuditEscalationHealsCoverage(t *testing.T) {
	g := angleStressGraph()
	ex, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	exLeader := ex.Estimates[0]
	const seed = 4 // pinned: plain OLS misses the leader, audits recover it
	plain, err := OLS(g, OLSOptions{PrepTrials: 1, Trials: 2000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.Lookup(exLeader.B); ok {
		t.Fatalf("seed %d does not reproduce the under-prepared miss", seed)
	}
	res, err := Supervise(g, SupervisorOptions{
		Method: "ols", PrepTrials: 1, Trials: 2000, Seed: seed,
		AuditEvery: 200, MaxEscalations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Adaptive
	if rep.Escalations == 0 {
		t.Fatal("no escalation recorded")
	}
	if rep.FinalPrepTrials <= 1 {
		t.Errorf("prep target not escalated: %d", rep.FinalPrepTrials)
	}
	var sawEscalate bool
	for _, tr := range rep.Transitions {
		if tr.Reason == "escalate-prep" && tr.From == "ols" && tr.To == "ols" {
			sawEscalate = true
		}
	}
	if !sawEscalate {
		t.Errorf("transitions missing escalate-prep: %+v", rep.Transitions)
	}
	got, ok := res.Lookup(exLeader.B)
	if !ok {
		t.Fatal("healed run still misses the exact leader")
	}
	if diff := math.Abs(got.P - exLeader.P); diff > statTol(res.TrialsDone) {
		t.Errorf("healed leader estimate %.4f vs exact %.4f (diff %.4f > tol)", got.P, exLeader.P, diff)
	}
	if res.Adaptive.StopReason != StopCompleted {
		t.Errorf("stop reason %q", res.Adaptive.StopReason)
	}
}

// When the preparing phase is sabotaged so audits keep finding misses,
// the escalation budget runs out and the run falls down the ladder to a
// full OS run with the same seed and trial budget.
func TestSuperviseFallbackLadder(t *testing.T) {
	g := angleStressGraph()
	const seed, trials = 1, 2000
	res, err := Supervise(g, SupervisorOptions{
		Method: "ols", PrepTrials: 1, Trials: trials, Seed: seed,
		AuditEvery: 50, MaxEscalations: 1,
		OS: OSOptions{DropA2: true}, // prep stays blind, audits stay correct
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "os" {
		t.Fatalf("expected fallback to os, got %q", res.Method)
	}
	rep := res.Adaptive
	if rep.FinalMethod != "os" || rep.StopReason != StopCompleted {
		t.Errorf("report %+v", rep)
	}
	last := rep.Transitions[len(rep.Transitions)-1]
	if last.Reason != "max-escalations" || last.From != "ols" || last.To != "os" {
		t.Errorf("last transition %+v", last)
	}
	// The fallback inherits the run's OS knobs, seed and trials.
	want, err := OS(g, OSOptions{Trials: trials, Seed: seed, DropA2: true})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, res.Estimates, want.Estimates)
}

// Epsilon stops the run as soon as the leader's normal-approximation
// half-width reaches the target, and the reported half-width must agree
// with the interval package's arithmetic recomputed from the result.
func TestSuperviseEpsilonStopsEarly(t *testing.T) {
	g := figure1Graph()
	const seed, trials, eps = 11, 200000, 0.02
	res, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: trials, Seed: seed, Epsilon: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Adaptive
	if rep.StopReason != StopEpsilon {
		t.Fatalf("stop reason %q, want epsilon", rep.StopReason)
	}
	if !res.Partial || res.TrialsDone >= trials {
		t.Fatalf("expected an early partial stop, TrialsDone=%d Partial=%v", res.TrialsDone, res.Partial)
	}
	if rep.HalfWidth <= 0 || rep.HalfWidth > eps {
		t.Errorf("achieved half-width %v outside (0, %v]", rep.HalfWidth, eps)
	}
	if rep.Z != defaultEpsilonZ {
		t.Errorf("z = %v, want default %v", rep.Z, defaultEpsilonZ)
	}
	x := int64(math.Round(res.Estimates[0].P * float64(res.TrialsDone)))
	want := interval.NormalHalfWidth(x, res.TrialsDone, rep.Z)
	if math.Abs(rep.HalfWidth-want) > 1e-15 {
		t.Errorf("half-width %v, interval math says %v", rep.HalfWidth, want)
	}
	// The partial is honest: its checkpoint finishes the run
	// bit-identically to an uninterrupted one.
	if res.Checkpoint == nil {
		t.Fatal("epsilon stop lost the checkpoint")
	}
	finished, err := OS(g, OSOptions{Trials: trials, Seed: seed, Resume: res.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := OS(g, OSOptions{Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, finished.Estimates, uninterrupted.Estimates)
}

// A tighter epsilon than the budget can reach completes normally.
func TestSuperviseEpsilonUnreachable(t *testing.T) {
	g := figure1Graph()
	res, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: 500, Seed: 11, Epsilon: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Adaptive.StopReason != StopCompleted {
		t.Errorf("want a completed run, got %q partial=%v", res.Adaptive.StopReason, res.Partial)
	}
	if res.Adaptive.HalfWidth <= 1e-6 {
		t.Errorf("half-width %v should not have met epsilon", res.Adaptive.HalfWidth)
	}
}

// fakeClock advances a fixed step per reading, making deadline behaviour
// deterministic.
type fakeClock struct {
	mu   atomic.Int64
	t0   time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	n := c.mu.Add(1)
	return c.t0.Add(time.Duration(n) * c.step)
}

func TestSuperviseDeadlineReturnsPartial(t *testing.T) {
	g := figure1Graph()
	clock := &fakeClock{t0: time.Unix(1000, 0), step: time.Millisecond}
	res, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: 100000, Seed: 5,
		Deadline: clock.t0.Add(150 * time.Millisecond),
		Now:      clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.StopReason != StopDeadline {
		t.Fatalf("stop reason %q, want deadline", res.Adaptive.StopReason)
	}
	if !res.Partial || res.TrialsDone >= 100000 {
		t.Fatalf("expected a partial prefix, TrialsDone=%d", res.TrialsDone)
	}
	if res.Checkpoint == nil {
		t.Error("deadline stop lost the checkpoint")
	}
}

// A deadline that expires during the OLS preparing phase returns the
// prepare-phase checkpoint, honestly reporting zero sampling trials.
func TestSuperviseDeadlineDuringPrep(t *testing.T) {
	g := figure1Graph()
	clock := &fakeClock{t0: time.Unix(1000, 0), step: time.Millisecond}
	res, err := Supervise(g, SupervisorOptions{
		Method: "ols", Trials: 1000, PrepTrials: 100000, Seed: 5,
		Deadline: clock.t0.Add(50 * time.Millisecond),
		Now:      clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.StopReason != StopDeadline {
		t.Fatalf("stop reason %q, want deadline", res.Adaptive.StopReason)
	}
	if !res.Partial || res.TrialsDone != 0 {
		t.Fatalf("prep-phase stop should report 0 sampling trials, got %d", res.TrialsDone)
	}
	if res.Checkpoint == nil || !res.Checkpoint.Prepare {
		t.Fatalf("expected a prepare-phase checkpoint, got %+v", res.Checkpoint)
	}
}

// External cancellation wins over everything and keeps the resumable
// checkpoint contract.
func TestSuperviseCancelResume(t *testing.T) {
	g := figure1Graph()
	const seed, trials = 9, 50000
	var polls atomic.Int64
	res, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: trials, Seed: seed,
		Interrupt: func() bool { return polls.Add(1) > 500 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.StopReason != StopCancelled {
		t.Fatalf("stop reason %q, want cancelled", res.Adaptive.StopReason)
	}
	if !res.Partial || res.Checkpoint == nil {
		t.Fatal("cancelled run must return a resumable partial")
	}
	resumed, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: trials, Seed: seed, Resume: res.Checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := OS(g, OSOptions{Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, resumed.Estimates, want.Estimates)
	if resumed.Adaptive.StopReason != StopCompleted {
		t.Errorf("resumed run stop reason %q", resumed.Adaptive.StopReason)
	}
}

// A checkpoint written by a fallback run resumes the fallback method even
// when the options still name the original rung.
func TestSuperviseResumedFallback(t *testing.T) {
	g := figure1Graph()
	const seed, trials = 9, 50000
	var polls atomic.Int64
	cancelled, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: trials, Seed: seed,
		Interrupt: func() bool { return polls.Add(1) > 300 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Resume it through an OLS-configured supervisor, as a restarted
	// process that only knows its original flags would.
	resumed, err := Supervise(g, SupervisorOptions{
		Method: "ols", Trials: trials, PrepTrials: 100, Seed: seed,
		Resume: cancelled.Checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Method != "os" {
		t.Fatalf("resumed method %q, want os", resumed.Method)
	}
	var sawResumeFallback bool
	for _, tr := range resumed.Adaptive.Transitions {
		if tr.Reason == "resumed-fallback" && tr.To == "os" {
			sawResumeFallback = true
		}
	}
	if !sawResumeFallback {
		t.Errorf("transitions %+v missing resumed-fallback", resumed.Adaptive.Transitions)
	}
	want, err := OS(g, OSOptions{Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, resumed.Estimates, want.Estimates)
}

// The watchdog surfaces a stalled run as a typed error instead of
// hanging.
func TestSuperviseWatchdogStall(t *testing.T) {
	g := figure1Graph()
	release := make(chan struct{})
	defer close(release) // lets the abandoned goroutine finish
	var polls atomic.Int64
	_, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: 1000, Seed: 2,
		StallTimeout: 30 * time.Millisecond,
		Interrupt: func() bool {
			if polls.Add(1) == 2 {
				<-release // the run wedges mid-run
			}
			return false
		},
	})
	if err == nil {
		t.Fatal("expected a stall error")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("error %v does not match ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *StallError", err)
	}
	if se.Method != "os" || se.Timeout != 30*time.Millisecond || se.Quiet < se.Timeout {
		t.Errorf("stall error fields %+v", se)
	}
}

// An armed watchdog must not disturb a healthy run.
func TestSuperviseWatchdogHealthyRun(t *testing.T) {
	g := figure1Graph()
	res, err := Supervise(g, SupervisorOptions{
		Method: "os", Trials: 500, Seed: 2,
		StallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Adaptive.StopReason != StopCompleted {
		t.Errorf("healthy run degraded: %+v", res.Adaptive)
	}
}

func TestSuperviseValidation(t *testing.T) {
	g := figure1Graph()
	cases := []struct {
		name string
		opt  SupervisorOptions
	}{
		{"unknown method", SupervisorOptions{Method: "exact", Trials: 10}},
		{"no trials", SupervisorOptions{Method: "os"}},
		{"ols without prep", SupervisorOptions{Method: "ols", Trials: 10}},
		{"audits on os", SupervisorOptions{Method: "os", Trials: 10, AuditEvery: 5}},
		{"epsilon on ols-kl", SupervisorOptions{Method: "ols-kl", Trials: 10, PrepTrials: 5, Epsilon: 0.1}},
		{"negative epsilon", SupervisorOptions{Method: "os", Trials: 10, Epsilon: -1}},
		{"negative stall", SupervisorOptions{Method: "os", Trials: 10, StallTimeout: -time.Second}},
		{"mc-vp workers", SupervisorOptions{Method: "mc-vp", Trials: 10, Workers: 2}},
		{"negative audits", SupervisorOptions{Method: "ols", Trials: 10, PrepTrials: 5, AuditEvery: -1}},
	}
	for _, c := range cases {
		if _, err := Supervise(g, c.opt); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// Supervised segments are unit ranges, so ε-checks, audits and
// escalations fall at the same trials, and the Result is the same, on any
// worker count.
func TestSuperviseWorkerCountIndependent(t *testing.T) {
	g := angleStressGraph()
	for _, opt := range []SupervisorOptions{
		{Method: "os", Trials: 20000, Seed: 4, Epsilon: 0.01},
		{Method: "ols", Trials: 2000, PrepTrials: 1, Seed: 4, AuditEvery: 50},
		{Method: "ols", Trials: 20000, PrepTrials: 20, Seed: 4, Epsilon: 0.01},
	} {
		var want *Result
		for _, workers := range []int{0, 1, 2, 4} {
			opt.Workers = workers
			res, err := Supervise(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: Workers=%d: %d trials, report %+v; Workers=0: %d trials, report %+v",
					opt.Method, workers, res.TrialsDone, res.Adaptive, want.TrialsDone, want.Adaptive)
			}
		}
	}
}
