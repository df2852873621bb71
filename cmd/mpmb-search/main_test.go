package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// writeFigure1 saves the paper's running example for CLI tests.
func writeFigure1(t *testing.T) string {
	t.Helper()
	b := mpmb.NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	path := filepath.Join(t.TempDir(), "fig1.graph")
	if err := mpmb.SaveGraph(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllMethods(t *testing.T) {
	path := writeFigure1(t)
	for _, method := range []string{"exact", "mc-vp", "os", "ols-kl", "ols"} {
		var sb strings.Builder
		err := run([]string{"-graph", path, "-method", method, "-trials", "5000", "-topk", "2"}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		out := sb.String()
		if !strings.Contains(out, "loaded") || !strings.Contains(out, "top-2") {
			t.Fatalf("%s: unexpected output:\n%s", method, out)
		}
		// The MPMB of Figure 1 is B(0,1|1,2) for every correct method.
		if !strings.Contains(out, "#1  B(0,1|1,2)") {
			t.Fatalf("%s: wrong MPMB:\n%s", method, out)
		}
	}
}

func TestRunStatsDisjointAndWorkers(t *testing.T) {
	path := writeFigure1(t)
	var sb strings.Builder
	err := run([]string{"-graph", path, "-method", "os", "-trials", "3000",
		"-stats", "-disjoint", "-workers", "3"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "backbone butterflies: 3") {
		t.Fatalf("missing stats:\n%s", out)
	}
	if !strings.Contains(out, "vertex-disjoint") {
		t.Fatalf("missing disjoint marker:\n%s", out)
	}
	// All Figure 1 butterflies share u1,u2: disjoint top-k has one entry.
	if strings.Contains(out, "#2") {
		t.Fatalf("disjoint selection returned overlapping butterflies:\n%s", out)
	}
}

func TestRunSearchErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("missing -graph accepted")
	}
	if err := run([]string{"-graph", "nope.graph"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
	path := writeFigure1(t)
	if err := run([]string{"-graph", path, "-method", "bogus"}, &sb); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := run([]string{"-graph", path, "-trials", "0"}, &sb); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestRunFlagErrorsBeforeLoad: a flag that the query or the options
// reject fails before the graph is read, so no "loaded" line is printed.
func TestRunFlagErrorsBeforeLoad(t *testing.T) {
	path := writeFigure1(t)
	for _, args := range [][]string{
		{"-method", "os", "-anchor-l", "4294967299"},
		{"-method", "os", "-trials", "-5"},
		{"-method", "exact", "-workers", "2"},
	} {
		var sb strings.Builder
		err := run(append([]string{"-graph", path}, args...), &sb)
		if err == nil {
			t.Fatalf("%v accepted", args)
		}
		if strings.Contains(sb.String(), "loaded") {
			t.Errorf("%v: %q reported after the graph load:\n%s", args, err, sb.String())
		}
	}
}

// TestRunTimeoutCheckpointResume exercises the graceful-degradation flow
// end to end through the CLI: a -timeout cancels the run, -checkpoint
// persists its state, and -resume finishes it with JSON output
// byte-identical to a run that was never interrupted.
func TestRunTimeoutCheckpointResume(t *testing.T) {
	path := writeFigure1(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	common := []string{"-graph", path, "-method", "os", "-trials", "30000", "-seed", "7"}

	// Reference: the same search, never interrupted.
	refJSON := filepath.Join(dir, "ref.json")
	var sb strings.Builder
	if err := run(append(common, "-json", refJSON), &sb); err != nil {
		t.Fatal(err)
	}

	// A 1ns timeout is guaranteed to expire before the first trial, so the
	// cancelled run is deterministic: partial, zero trials done.
	sb.Reset()
	err := run(append(common, "-timeout", "1ns", "-checkpoint", ckpt), &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "stopped after") {
		t.Fatalf("timed-out run not reported as stopped:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint saved to "+ckpt) {
		t.Fatalf("checkpoint not saved:\n%s", out)
	}

	// Resuming finishes the run; the JSON report must match the reference
	// byte for byte.
	resJSON := filepath.Join(dir, "resumed.json")
	sb.Reset()
	if err := run(append(common, "-resume", ckpt, "-json", resJSON), &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "stopped after") {
		t.Fatalf("resumed run still partial:\n%s", sb.String())
	}
	ref, err := os.ReadFile(refJSON)
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile(resJSON)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(res) {
		t.Fatalf("resumed JSON differs from uninterrupted run:\nref:     %s\nresumed: %s", ref, res)
	}
}

// TestRunExactNoCheckpoint: exact has no resumable state; the CLI says so
// instead of writing a useless file.
func TestRunExactNoCheckpoint(t *testing.T) {
	path := writeFigure1(t)
	ckpt := filepath.Join(t.TempDir(), "exact.ckpt")
	var sb strings.Builder
	err := run([]string{"-graph", path, "-method", "exact",
		"-timeout", "1ns", "-checkpoint", ckpt}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no resumable state") {
		t.Fatalf("missing no-resumable-state notice:\n%s", sb.String())
	}
	if _, err := os.Stat(ckpt); err == nil {
		t.Fatal("checkpoint file written for exact method")
	}
}

// TestRunWorkersRejected: -workers must be an explicit error for methods
// with no parallel runner, not a silently ignored flag.
func TestRunWorkersRejected(t *testing.T) {
	path := writeFigure1(t)
	for _, method := range []string{"mc-vp", "exact"} {
		var sb strings.Builder
		err := run([]string{"-graph", path, "-method", method, "-workers", "2"}, &sb)
		if err == nil {
			t.Fatalf("%s: -workers 2 accepted", method)
		}
		if !strings.Contains(err.Error(), "parallel") {
			t.Fatalf("%s: unhelpful error: %v", method, err)
		}
	}
}

// TestRunResumeErrors covers checkpoint-file failure modes at the CLI
// boundary: missing file and a checkpoint from a mismatched run.
func TestRunResumeErrors(t *testing.T) {
	path := writeFigure1(t)
	var sb strings.Builder
	if err := run([]string{"-graph", path, "-resume", "missing.ckpt"}, &sb); err == nil {
		t.Fatal("missing checkpoint file accepted")
	}
	// Produce a valid checkpoint with seed 7, then resume under seed 8.
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	err := run([]string{"-graph", path, "-method", "os", "-trials", "30000",
		"-seed", "7", "-timeout", "1ns", "-checkpoint", ckpt}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-graph", path, "-method", "os", "-trials", "30000",
		"-seed", "8", "-resume", ckpt}, &sb)
	if err == nil {
		t.Fatal("checkpoint resumed under a different seed")
	}
}

// TestHelperSearchProcess is not a test: it is the subprocess body for the
// signal tests, re-executed from the test binary with
// MPMB_SEARCH_HELPER=1. It runs an effectively unbounded search so the
// parent can interrupt it with a signal.
func TestHelperSearchProcess(t *testing.T) {
	if os.Getenv("MPMB_SEARCH_HELPER") != "1" {
		t.Skip("helper process body")
	}
	args := os.Args[len(os.Args)-4:] // -graph <path> -checkpoint <path>
	err := run(append(args, "-method", "os", "-trials", "1000000000", "-seed", "7"), os.Stdout)
	if err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// syncBuffer is a bytes.Buffer safe to poll from the test while the
// exec machinery's copier goroutine writes the child's output into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// signalStopsSearch runs the helper process and delivers sig once the
// search has started; the CLI must trap it, stop at a trial boundary, save
// the checkpoint and exit 0 with partial results.
func signalStopsSearch(t *testing.T, sig os.Signal) {
	t.Helper()
	path := writeFigure1(t)
	ckpt := filepath.Join(t.TempDir(), "sig.ckpt")
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperSearchProcess", "--",
		"-graph", path, "-checkpoint", ckpt)
	cmd.Env = append(os.Environ(), "MPMB_SEARCH_HELPER=1")
	var outBuf syncBuffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &outBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the search to actually start (the graph-loaded banner),
	// then signal.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(outBuf.String(), "loaded") {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("helper never started:\n%s", outBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let it get into the sampling loop
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("helper did not exit cleanly after %v: %v\n%s", sig, err, outBuf.String())
	}
	out := outBuf.String()
	if !strings.Contains(out, "stopped after") {
		t.Fatalf("%v did not produce a graceful partial result:\n%s", sig, out)
	}
	if !strings.Contains(out, "checkpoint saved to") {
		t.Fatalf("%v run saved no checkpoint:\n%s", sig, out)
	}
	if _, err := mpmb.LoadCheckpoint(ckpt); err != nil {
		t.Fatalf("checkpoint written on %v does not load: %v", sig, err)
	}
}

func TestRunSIGTERMGraceful(t *testing.T) { signalStopsSearch(t, syscall.SIGTERM) }
func TestRunSIGINTGraceful(t *testing.T)  { signalStopsSearch(t, os.Interrupt) }

// TestRunAdaptiveFlags drives the new adaptive flags end to end through
// the CLI: -epsilon stops early and reports the achieved half-width,
// -audit-every reports its audit tally, and both land in the JSON output.
func TestRunAdaptiveFlags(t *testing.T) {
	path := writeFigure1(t)
	var sb strings.Builder
	err := run([]string{"-graph", path, "-method", "os", "-trials", "100000000",
		"-epsilon", "0.05", "-seed", "7"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "adaptive: stop=epsilon") || !strings.Contains(out, "half-width=") {
		t.Fatalf("missing epsilon-stop report:\n%s", out)
	}

	jsonPath := filepath.Join(t.TempDir(), "adaptive.json")
	sb.Reset()
	err = run([]string{"-graph", path, "-method", "ols", "-trials", "4000",
		"-audit-every", "500", "-json", jsonPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "audits=") {
		t.Fatalf("missing audit tally:\n%s", sb.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Adaptive *mpmb.AdaptiveReport `json:"adaptive"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Adaptive == nil || doc.Adaptive.StopReason != mpmb.StopCompleted || doc.Adaptive.Audits == 0 {
		t.Fatalf("JSON adaptive report = %+v", doc.Adaptive)
	}

	sb.Reset()
	if err := run([]string{"-graph", path, "-method", "os", "-audit-every", "10"}, &sb); err == nil {
		t.Fatal("-audit-every accepted for a non-OLS method")
	}
}

// TestRunDeadlineFlag: -deadline bounds the run and reports the honest
// partial prefix with a deadline stop reason.
func TestRunDeadlineFlag(t *testing.T) {
	path := writeFigure1(t)
	var sb strings.Builder
	err := run([]string{"-graph", path, "-method", "os", "-trials", "1000000000",
		"-deadline", "100ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "adaptive: stop=deadline") {
		t.Fatalf("missing deadline stop:\n%s", out)
	}
	if !strings.Contains(out, "stopped after") {
		t.Fatalf("deadline run not partial:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeFigure1(t)
	jsonPath := filepath.Join(t.TempDir(), "res.json")
	var sb strings.Builder
	err := run([]string{"-graph", path, "-method", "exact", "-topk", "3", "-json", jsonPath}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Method string `json:"method"`
		Top    []struct {
			U1, U2, V1, V2 uint32
			Weight, P      float64
		} `json:"top"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Method != "exact" || len(doc.Top) != 3 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Top[0].Weight != 7 {
		t.Fatalf("top butterfly weight %v, want 7", doc.Top[0].Weight)
	}
}

// TestRunProfileFlags: -cpuprofile/-memprofile must leave non-empty
// pprof files behind after a normal search run.
func TestRunProfileFlags(t *testing.T) {
	path := writeFigure1(t)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var sb strings.Builder
	err := run([]string{"-graph", path, "-method", "os", "-trials", "2000",
		"-cpuprofile", cpu, "-memprofile", mem}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	// An unwritable profile path is a startup error, before any search.
	if err := run([]string{"-graph", path, "-cpuprofile", filepath.Join(dir, "no", "dir", "c.out")}, &sb); err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}
