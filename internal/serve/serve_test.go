package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// writeFigure1 saves the paper's running example under dir as name.
func writeFigure1(t *testing.T, dir, name string) {
	t.Helper()
	b := mpmb.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	if err := mpmb.SaveGraph(filepath.Join(dir, name), b.Build()); err != nil {
		t.Fatal(err)
	}
}

// buildMeshGraph is a deterministic denser fixture whose OS trials are
// slow enough for drain/suspend races to be controllable.
func buildMeshGraph(t *testing.T, dir, name string) *mpmb.Graph {
	t.Helper()
	const nl, nr = 40, 40
	b := mpmb.NewBuilder(nl, nr)
	for u := 0; u < nl; u++ {
		for k := 0; k < 10; k++ {
			v := (u*7 + k*5) % nr
			w := float64(1 + (u*13+v*29)%50)
			p := 0.2 + 0.6*float64((u*31+v*17)%100)/100
			b.AddEdge(uint32(u), uint32(v), w, p)
		}
	}
	g := b.Build()
	if err := mpmb.SaveGraph(filepath.Join(dir, name), g); err != nil {
		t.Fatal(err)
	}
	return g
}

// testServer stands up a Server plus an httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func submitJob(t *testing.T, base, tenant string, spec map[string]any) (id string, resp *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.ID, resp
	}
	return "", resp
}

func jobStatus(t *testing.T, base, id string) statusDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var doc statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, base, id string, want ...JobState) statusDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := jobStatus(t, base, id)
		for _, w := range want {
			if doc.State == w {
				return doc
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (err %q), wanted %v", id, doc.State, doc.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitRunFetchResult is the happy path: submit, poll to done,
// fetch the result, and check it is bit-identical to a direct engine
// call with the same options — the daemon must add zero noise.
func TestSubmitRunFetchResult(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1})

	id, _ := submitJob(t, hs.URL, "", map[string]any{
		"graph": "fig1.graph", "method": "os", "trials": 20000, "seed": 7, "top_k": 3,
	})
	if id == "" {
		t.Fatal("submission rejected")
	}
	doc := waitState(t, hs.URL, id, JobDone, JobFailed)
	if doc.State != JobDone {
		t.Fatalf("job failed: %s", doc.Error)
	}
	if doc.TrialsDone != 20000 {
		t.Fatalf("trials_done = %d, want 20000", doc.TrialsDone)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	g, err := mpmb.LoadGraph(filepath.Join(graphs, "fig1.graph"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOS, Trials: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := resultDocFrom(id, JobSpec{TopK: 3}, ref)
	if len(got.Top) != len(want.Top) {
		t.Fatalf("%d top entries, want %d", len(got.Top), len(want.Top))
	}
	for i := range got.Top {
		if got.Top[i] != want.Top[i] {
			t.Fatalf("top[%d] = %+v, want %+v (service must be bit-identical)", i, got.Top[i], want.Top[i])
		}
	}

	// The event stream for a finished job replays and terminates.
	eresp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	sc := bufio.NewScanner(eresp.Body)
	lines := 0
	var lastSeq int64 = -1
	for sc.Scan() {
		var rec logEvent
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("event line %d: %v", lines, err)
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("event sequence not increasing: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		lines++
	}
	if lines == 0 {
		t.Fatal("finished job streamed no events")
	}

	// Liveness, readiness and metrics answer.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		r, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, r.StatusCode)
		}
	}
}

// TestAdmissionQueueSaturation: with one worker pinned and a depth-1
// queue occupied, the next submission answers 429 with a Retry-After
// hint and leaves no job behind.
func TestAdmissionQueueSaturation(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	srv, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(),
		Workers: 1, QueueDepth: 1, CheckpointEvery: -1,
		TenantTrialRate: 1e12, TenantTrialBurst: 1e12, TenantJobs: 10,
	})

	long := map[string]any{"graph": "fig1.graph", "method": "os", "trials": 2_000_000_000, "seed": 1}

	id1, _ := submitJob(t, hs.URL, "", long)
	if id1 == "" {
		t.Fatal("first job rejected")
	}
	waitState(t, hs.URL, id1, JobRunning)

	id2, _ := submitJob(t, hs.URL, "", long)
	if id2 == "" {
		t.Fatal("second job rejected with the queue empty")
	}

	id3, resp := submitJob(t, hs.URL, "", long)
	if id3 != "" {
		t.Fatal("third job admitted past a full queue")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full answer = HTTP %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	if srv.sched.queueLen() != 1 {
		t.Fatalf("queue length %d after rejection, want 1", srv.sched.queueLen())
	}
	// The rejected job left no manifest to recover. Dot-prefixed entries
	// are in-flight atomic writes of the running job's manifest (the
	// runner persists the running state after publishing it), not
	// manifests.
	entries, err := os.ReadDir(filepath.Join(srv.cfg.StateDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	var manifests []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), ".") {
			manifests = append(manifests, e.Name())
		}
	}
	if len(manifests) != 2 {
		t.Fatalf("%d manifests on disk (%v), want 2 (rejection must leave no residue)", len(manifests), manifests)
	}

	for _, id := range []string{id1, id2} {
		if resp, err := http.Post(hs.URL+"/v1/jobs/"+id+"/cancel", "", nil); err == nil {
			resp.Body.Close()
		}
	}
	for _, id := range []string{id1, id2} {
		waitState(t, hs.URL, id, JobCancelled, JobDone)
	}
}

// TestTenantQuotaIsolation: one tenant exhausting its concurrency cap
// must not affect another tenant's admissions, and budget rejections
// carry the refill time as Retry-After.
func TestTenantQuotaIsolation(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(),
		Workers: 1, QueueDepth: 16, CheckpointEvery: -1,
		TenantJobs: 1, TenantTrialRate: 1e12, TenantTrialBurst: 1e12,
	})
	long := map[string]any{"graph": "fig1.graph", "method": "os", "trials": 2_000_000_000, "seed": 1}

	idA, _ := submitJob(t, hs.URL, "alice", long)
	if idA == "" {
		t.Fatal("alice's first job rejected")
	}
	id, resp := submitJob(t, hs.URL, "alice", long)
	if id != "" {
		t.Fatal("alice admitted past her concurrency cap")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cap answer = HTTP %d, want 429", resp.StatusCode)
	}
	idB, _ := submitJob(t, hs.URL, "bob", long)
	if idB == "" {
		t.Fatal("bob's job rejected because of alice's saturation — tenant isolation broken")
	}

	for _, id := range []string{idA, idB} {
		if resp, err := http.Post(hs.URL+"/v1/jobs/"+id+"/cancel", "", nil); err == nil {
			resp.Body.Close()
		}
	}
	for _, id := range []string{idA, idB} {
		waitState(t, hs.URL, id, JobCancelled, JobDone)
	}
}

// TestTenantBudgetRetryAfter: an exhausted trial budget names the exact
// refill wait.
func TestTenantBudgetRetryAfter(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: t.TempDir(),
		Workers: 1, CheckpointEvery: -1,
		TenantJobs: 10, TenantTrialRate: 100, TenantTrialBurst: 25_000,
	})
	spec := map[string]any{"graph": "fig1.graph", "method": "os", "trials": 20_000, "seed": 1}
	id1, _ := submitJob(t, hs.URL, "carol", spec)
	if id1 == "" {
		t.Fatal("budgeted job rejected")
	}
	id2, resp := submitJob(t, hs.URL, "carol", spec)
	if id2 != "" {
		t.Fatal("job admitted past the trial budget")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("budget answer = HTTP %d, want 429", resp.StatusCode)
	}
	// Shortfall ≈ 15k tokens at 100/s → ~150s.
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 100 || secs > 200 {
		t.Fatalf("Retry-After = %q, want ≈150s refill hint", resp.Header.Get("Retry-After"))
	}
	waitState(t, hs.URL, id1, JobDone)
}

// TestDrainSuspendRestartBitIdentical is the tentpole round trip: a
// running job is checkpoint-suspended by drain, a second server over the
// same state dir resumes it, and the finished result is bit-identical
// to an uninterrupted run.
func TestDrainSuspendRestartBitIdentical(t *testing.T) {
	graphs := t.TempDir()
	state := t.TempDir()
	g := buildMeshGraph(t, graphs, "mesh.graph")
	// Long enough to outlast the first 20ms checkpoint slice, short enough
	// that the resumed run finishes well inside waitState's bound even
	// under -race on a loaded host.
	const trials = 100_000
	spec := map[string]any{"graph": "mesh.graph", "method": "os", "trials": trials, "seed": 42, "top_k": 5}

	// Reference: the same search, never interrupted.
	ref, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOS, Trials: trials, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := resultDocFrom("", JobSpec{TopK: 5}, ref)

	cfg := Config{
		GraphRoot: graphs, StateDir: state,
		Workers: 1, CheckpointEvery: 20 * time.Millisecond,
		DrainGrace: 30 * time.Millisecond, JournalEvents: true,
	}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())

	id, _ := submitJob(t, hs1.URL, "", spec)
	if id == "" {
		t.Fatal("submission rejected")
	}
	// Wait for the first persisted checkpoint, so the suspension has a
	// prefix to resume (drain would checkpoint anyway; this derandomizes
	// the test).
	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := jobStatus(t, hs1.URL, id)
		if doc.Checkpointed && doc.TrialsDone > 0 {
			break
		}
		if doc.State == JobDone {
			t.Fatal("job finished before drain could interrupt it; grow the fixture")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint appeared; job state %q err %q", doc.State, doc.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), srv1.DrainBudget())
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if !srv1.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	doc := jobStatus(t, hs1.URL, id)
	if doc.State != JobSuspended {
		t.Fatalf("job %q after drain, want suspended (err %q)", doc.State, doc.Error)
	}
	if got := doc.TrialsDone; got <= 0 || got >= trials {
		t.Fatalf("suspended with trials_done = %d, want a strict prefix of %d", got, trials)
	}
	if _, err := os.Stat(filepath.Join(state, "checkpoints", id+".ckpt")); err != nil {
		t.Fatalf("no checkpoint on disk after drain: %v", err)
	}
	// Submissions during drain answer 503.
	if rid, resp := submitJob(t, hs1.URL, "", spec); rid != "" || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain admission = HTTP %d, want 503", resp.StatusCode)
	}
	hs1.Close()

	// Restart over the same state: the job must resume and finish.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer func() {
		hs2.Close()
		srv2.Close()
	}()
	doc = waitState(t, hs2.URL, id, JobDone, JobFailed)
	if doc.State != JobDone {
		t.Fatalf("resumed job failed: %s", doc.Error)
	}
	if !doc.Resumed {
		t.Fatal("finished job not marked as resumed")
	}

	resp, err := http.Get(hs2.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("resumed result still partial")
	}
	if got.Trials != trials {
		t.Fatalf("resumed result trials = %d, want %d", got.Trials, trials)
	}
	if len(got.Top) != len(want.Top) {
		t.Fatalf("%d top entries, want %d", len(got.Top), len(want.Top))
	}
	for i := range got.Top {
		if got.Top[i] != want.Top[i] {
			t.Fatalf("top[%d] = %+v, want %+v — suspend/resume broke bit-identity", i, got.Top[i], want.Top[i])
		}
	}
	// The journal survived both processes.
	if fi, err := os.Stat(filepath.Join(state, "events", id+".jsonl")); err != nil || fi.Size() == 0 {
		t.Fatalf("event journal missing or empty: %v", err)
	}
}

// TestShutdownLeaksNoGoroutines: a server that admitted, ran, cancelled
// and drained jobs must unwind every goroutine it started.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	before := runtime.NumGoroutine()

	srv, err := New(Config{
		GraphRoot: graphs, StateDir: t.TempDir(),
		Workers: 2, CheckpointEvery: -1, DrainGrace: 50 * time.Millisecond,
		TenantTrialRate: 1e12, TenantTrialBurst: 1e12, TenantJobs: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())

	idDone, _ := submitJob(t, hs.URL, "", map[string]any{"graph": "fig1.graph", "method": "os", "trials": 5000, "seed": 3})
	idLong, _ := submitJob(t, hs.URL, "", map[string]any{"graph": "fig1.graph", "method": "os", "trials": 2_000_000_000, "seed": 4})
	if idDone == "" || idLong == "" {
		t.Fatal("submissions rejected")
	}
	waitState(t, hs.URL, idDone, JobDone)
	if resp, err := http.Post(hs.URL+"/v1/jobs/"+idLong+"/cancel", "", nil); err == nil {
		resp.Body.Close()
	}
	waitState(t, hs.URL, idLong, JobCancelled)

	ctx, cancel := context.WithTimeout(context.Background(), srv.DrainBudget())
	err = srv.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	hs.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuotaBookArithmetic pins the token-bucket math with a frozen
// clock.
func TestQuotaBookArithmetic(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newQuotaBook(2, 100, 1000)

	if err := b.admit("t", 800, now); err != nil {
		t.Fatal(err)
	}
	err := b.admit("t", 800, now)
	var qe *quotaError
	if err == nil {
		t.Fatal("overdraft admitted")
	}
	if ok := asQuotaError(err, &qe); !ok {
		t.Fatalf("err %T, want *quotaError", err)
	}
	// Shortfall 600 tokens at 100/s = 6s.
	if qe.retryAfter != 6*time.Second {
		t.Fatalf("retryAfter = %v, want 6s", qe.retryAfter)
	}
	// 6 seconds later the bucket refilled exactly enough.
	if err := b.admit("t", 800, now.Add(6*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Concurrency cap: both slots taken.
	if err := b.admit("t", 1, now.Add(6*time.Second)); err == nil {
		t.Fatal("third concurrent job admitted past cap 2")
	}
	b.release("t")
	if err := b.admit("t", 0, now.Add(6*time.Second)); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	// Refund restores tokens and the slot.
	b.refund("t", 800, now.Add(6*time.Second))
	if got := b.activeJobs("t"); got != 1 {
		t.Fatalf("active = %d after refund, want 1", got)
	}
}

func asQuotaError(err error, out **quotaError) bool {
	qe, ok := err.(*quotaError)
	if ok {
		*out = qe
	}
	return ok
}

// TestEventLogRing: the ring drops oldest, sequences expose the gap,
// close wakes followers.
func TestEventLogRing(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.append(mpmb.Event{N: int64(i)})
	}
	events, _, closed := l.since(0)
	if closed {
		t.Fatal("log closed prematurely")
	}
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if events[0].Seq != 6 || events[3].Seq != 9 {
		t.Fatalf("ring range [%d,%d], want [6,9]", events[0].Seq, events[3].Seq)
	}
	_, wake, _ := l.since(10)
	done := make(chan struct{})
	go func() {
		<-wake
		close(done)
	}()
	l.close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the follower")
	}
	if _, _, closed := l.since(0); !closed {
		t.Fatal("closed log not reported closed")
	}
}

// TestValidateSpecRejections: admission validation runs before any
// quota is charged.
func TestValidateSpecRejections(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	_, hs := testServer(t, Config{GraphRoot: graphs, StateDir: t.TempDir(), MaxTrials: 50_000, CheckpointEvery: -1})

	for name, spec := range map[string]map[string]any{
		"escaping graph path": {"graph": "../fig1.graph", "trials": 1000},
		"absolute graph path": {"graph": "/etc/passwd", "trials": 1000},
		"missing graph":       {"graph": "nope.graph", "trials": 1000},
		"over max trials":     {"graph": "fig1.graph", "trials": 60_000},
		"negative trials":     {"graph": "fig1.graph", "trials": -1},
		"unknown method":      {"graph": "fig1.graph", "method": "bogus", "trials": 1000},
	} {
		id, resp := submitJob(t, hs.URL, "", spec)
		if id != "" {
			t.Fatalf("%s: accepted", name)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestGraphCacheSharing: two names with identical bytes share one
// Searcher; the LRU keeps the cache bounded.
func TestGraphCacheSharing(t *testing.T) {
	dir := t.TempDir()
	writeFigure1(t, dir, "a.graph")
	writeFigure1(t, dir, "b.graph")
	c := newGraphCache(dir, 4)
	ea, err := c.get(filepath.Join(dir, "a.graph"))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := c.get(filepath.Join(dir, "b.graph"))
	if err != nil {
		t.Fatal(err)
	}
	if ea.searcher != eb.searcher {
		t.Fatal("identical graph bytes under two names did not share a Searcher")
	}
	if _, err := c.get(filepath.Join(dir, "missing.graph")); err == nil {
		t.Fatal("missing graph loaded")
	}

	small := newGraphCache(dir, 1)
	if _, err := small.get(filepath.Join(dir, "a.graph")); err != nil {
		t.Fatal(err)
	}
	if _, err := small.get(filepath.Join(dir, "b.graph")); err != nil {
		t.Fatal(err)
	}
	small.mu.Lock()
	n := len(small.byPath)
	small.mu.Unlock()
	if n != 1 {
		t.Fatalf("cache holds %d entries past capacity 1", n)
	}
}

// TestRecoveryRequeuesQueuedJobs: jobs that never started also survive
// a restart.
func TestRecoveryRequeuesQueuedJobs(t *testing.T) {
	graphs := t.TempDir()
	state := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	cfg := Config{
		GraphRoot: graphs, StateDir: state,
		Workers: 1, CheckpointEvery: -1, DrainGrace: 20 * time.Millisecond,
		TenantTrialRate: 1e12, TenantTrialBurst: 1e12, TenantJobs: 10,
	}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	long := map[string]any{"graph": "fig1.graph", "method": "os", "trials": 2_000_000_000, "seed": 1}
	quick := map[string]any{"graph": "fig1.graph", "method": "os", "trials": 5000, "seed": 2}
	idLong, _ := submitJob(t, hs1.URL, "", long)
	waitState(t, hs1.URL, idLong, JobRunning)
	idQuick, _ := submitJob(t, hs1.URL, "", quick)
	if idLong == "" || idQuick == "" {
		t.Fatal("submissions rejected")
	}
	ctx, cancel := context.WithTimeout(context.Background(), srv1.DrainBudget())
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	hs1.Close()
	if st := jobStatusManifest(t, state, idQuick); st != JobQueued {
		t.Fatalf("queued job persisted as %q, want queued", st)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer func() {
		hs2.Close()
		srv2.Close()
	}()
	// Recovery is submission-ordered: the long job re-occupies the single
	// worker first. Cancel it so the queued job can prove it survived.
	if resp, err := http.Post(hs2.URL+"/v1/jobs/"+idLong+"/cancel", "", nil); err == nil {
		resp.Body.Close()
	}
	waitState(t, hs2.URL, idLong, JobCancelled)
	waitState(t, hs2.URL, idQuick, JobDone)
}

func jobStatusManifest(t *testing.T, state, id string) JobState {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(state, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m.State
}

// TestPanicIsolation: a job whose runner panics fails alone; the daemon
// keeps serving.
func TestPanicIsolation(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	srv, hs := testServer(t, Config{GraphRoot: graphs, StateDir: t.TempDir(), Workers: 1, CheckpointEvery: -1})

	// Inject a deterministic fault behind the shield via the test hook.
	testJobHook = func(j *Job) {
		if j.ID == "panic-test" {
			panic("injected fault")
		}
	}
	defer func() { testJobHook = nil }()

	j := newJob("panic-test", "t", JobSpec{Graph: "fig1.graph", Trials: 1000}, time.Now())
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic escaped the shield: %v", r)
			}
		}()
		srv.sched.runJob(j)
	}()
	if j.State() != JobFailed {
		t.Fatalf("panicked job in state %q, want failed", j.State())
	}
	if !strings.Contains(j.manifest().Error, "runner panic") {
		t.Fatalf("panic not recorded: %q", j.manifest().Error)
	}

	// The daemon still serves.
	id, _ := submitJob(t, hs.URL, "", map[string]any{"graph": "fig1.graph", "method": "os", "trials": 5000, "seed": 3})
	if id == "" {
		t.Fatal("daemon stopped admitting after a runner panic")
	}
	waitState(t, hs.URL, id, JobDone)
	if srv.stats.panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", srv.stats.panics.Load())
	}
}

func TestMetricsAggregation(t *testing.T) {
	graphs := t.TempDir()
	writeFigure1(t, graphs, "fig1.graph")
	srv, hs := testServer(t, Config{GraphRoot: graphs, StateDir: t.TempDir(), CheckpointEvery: -1})
	for seed := 1; seed <= 2; seed++ {
		id, _ := submitJob(t, hs.URL, "", map[string]any{"graph": "fig1.graph", "method": "os", "trials": 5000, "seed": seed})
		if id == "" {
			t.Fatal("submission rejected")
		}
		waitState(t, hs.URL, id, JobDone)
	}
	agg := srv.aggregateMetrics()
	if agg.Trials != 10000 {
		t.Fatalf("aggregate trials = %d, want 10000", agg.Trials)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"mpmb_serve_jobs_submitted_total 2", "mpmb_serve_jobs_completed_total 2", "mpmb_serve_draining 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
