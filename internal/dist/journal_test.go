package dist

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// journalTestJob is the shared fixture: an OS job of 160 units split
// into 32-unit leases (5 spans).
func journalTestJob(t *testing.T) *core.ExecJob {
	g := meshGraph(t)
	return &core.ExecJob{
		Kind: core.ExecOS, Graph: g, Seed: 7, Units: 160, Start: 0,
	}
}

// noSleep is a retry policy that never actually waits.
func noSleep() core.RetryPolicy {
	return core.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, Sleep: func(time.Duration) {}}
}

// TestJournalReplayResumesRun is the crash-recovery bar in-process: a
// journaling coordinator grants every span and accepts a non-contiguous
// subset of completions, then "crashes" (is dropped); a fresh
// coordinator over the same journal directory, registering the identical
// job, must resume with the merged prefix intact, reissue exactly the
// uncompleted spans, absorb a stale duplicate from the dead epoch, and
// finish with an aggregate equal to a straight local run.
func TestJournalReplayResumesRun(t *testing.T) {
	dir := t.TempDir()
	job1 := journalTestJob(t)
	want, err := (&core.LocalExecutor{Workers: 1}).ExecuteTrials(journalTestJob(t))
	if err != nil {
		t.Fatal(err)
	}

	jl := &Journal{Dir: dir, Retry: noSleep()}
	epoch1 := NewCoordinator()
	epoch1.LeaseUnits = 32
	epoch1.MaxGrants = 1
	epoch1.Journal = jl
	id1, _, err := epoch1.register(job1)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []*LeaseComplete
	for {
		rep := epoch1.grant("doomed")
		if rep.Status != LeaseGranted {
			break
		}
		msg := executeRange(t, job1, rep.Lo, rep.Hi)
		msg.Job, msg.Lease = id1, rep.Lease
		msgs = append(msgs, msg)
	}
	if len(msgs) != 5 {
		t.Fatalf("granted %d spans, want 5", len(msgs))
	}
	// Complete spans 1..32 and 65..96 only: the prefix advances to 32,
	// 65..96 stays pending behind the 33..64 hole.
	for _, i := range []int{0, 2} {
		if rep, err := epoch1.complete(msgs[i]); err != nil || !rep.Accepted {
			t.Fatalf("completing %d..%d: %+v, %v", msgs[i].Lo, msgs[i].Hi, rep, err)
		}
	}
	if p := epoch1.prefix(id1); p != 32 {
		t.Fatalf("epoch-1 prefix = %d, want 32", p)
	}
	// epoch1 is never collected: the process died here.

	job2 := journalTestJob(t)
	epoch2 := NewCoordinator()
	epoch2.LeaseUnits = 32
	epoch2.MaxGrants = 1
	epoch2.Journal = jl
	id2, done, err := epoch2.register(job2)
	if err != nil {
		t.Fatal(err)
	}
	if p := epoch2.prefix(id2); p != 32 {
		t.Fatalf("replayed prefix = %d, want 32 (journaled completions lost)", p)
	}

	// The dead epoch's grants were journaled up to unit 160, so the
	// successor reissues exactly the three uncompleted spans — starting
	// with the hole that gates the merge — and grants nothing fresh.
	var regranted []int
	for {
		rep := epoch2.grant("successor")
		if rep.Status != LeaseGranted {
			break
		}
		regranted = append(regranted, rep.Lo)
		msg := executeRange(t, job2, rep.Lo, rep.Hi)
		msg.Job, msg.Lease = id2, rep.Lease
		if ack, err := epoch2.complete(msg); err != nil || !ack.Accepted {
			t.Fatalf("completing reissued %d..%d: %+v, %v", rep.Lo, rep.Hi, ack, err)
		}
	}
	if !reflect.DeepEqual(regranted, []int{33, 97, 129}) {
		t.Fatalf("reissued spans %v, want [33 97 129]", regranted)
	}
	select {
	case <-done:
	default:
		t.Fatal("all spans merged but the replayed job did not complete")
	}

	// A stale completion from the dead epoch limps in: same span, old
	// lease id. It must be absorbed as a duplicate, not double-merged.
	stale := msgs[0]
	stale.Job = id2
	if ack, err := epoch2.complete(stale); err != nil || ack.Accepted || !ack.JobDone {
		t.Fatalf("stale duplicate ack = %+v, %v; want refused on a done job", ack, err)
	}

	got, err := epoch2.collect(id2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != 160 {
		t.Fatalf("Done = %d, want 160", got.Done)
	}
	if !reflect.DeepEqual(countMap(got.CountsSnapshot()), countMap(want.CountsSnapshot())) {
		t.Fatalf("replayed aggregate diverges from local run\n got: %v\nwant: %v", got.CountsSnapshot(), want.CountsSnapshot())
	}
}

// flakyJournalFS wraps the real journal FS, failing CreateTemp calls:
// the first `failures` matching calls when failures > 0, or every
// matching call when failures < 0 (until healed).
type flakyJournalFS struct {
	mu       sync.Mutex
	failures int    // matching CreateTemp failures left (-1 = unbounded)
	match    string // only patterns containing this substring fail ("" = all)
	injected int
}

func (f *flakyJournalFS) CreateTemp(dir, pattern string) (core.CheckpointFile, error) {
	f.mu.Lock()
	bite := f.failures != 0 && (f.match == "" || strings.Contains(pattern, f.match))
	if bite {
		if f.failures > 0 {
			f.failures--
		}
		f.injected++
	}
	f.mu.Unlock()
	if bite {
		return nil, errors.New("flaky volume: EIO")
	}
	return osJournalFS.CreateTemp(dir, pattern)
}

func (f *flakyJournalFS) Rename(o, n string) error { return osJournalFS.Rename(o, n) }

func (f *flakyJournalFS) Remove(n string) error { return osJournalFS.Remove(n) }

func (f *flakyJournalFS) Open(n string) (io.ReadCloser, error) { return osJournalFS.Open(n) }

func (f *flakyJournalFS) bites() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

func (f *flakyJournalFS) heal() {
	f.mu.Lock()
	f.failures = 0
	f.mu.Unlock()
}

// TestJournalFlakyFSRetries drives the journal through a volume that
// fails its first two writes outright: the retry policy must absorb the
// flakiness invisibly — registration and completion succeed — and the
// records written through the retries must replay in a successor.
func TestJournalFlakyFSRetries(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyJournalFS{failures: 2}
	jl := &Journal{Dir: dir, FS: fs, Retry: noSleep()}
	coord := NewCoordinator()
	coord.LeaseUnits = 32
	coord.MaxGrants = 1
	coord.Journal = jl
	job := journalTestJob(t)
	id, _, err := coord.register(job)
	if err != nil {
		t.Fatalf("register through a flaky volume: %v", err)
	}
	rep := coord.grant("w")
	if rep.Status != LeaseGranted {
		t.Fatalf("no lease: %+v", rep)
	}
	msg := executeRange(t, job, rep.Lo, rep.Hi)
	msg.Job, msg.Lease = id, rep.Lease
	if ack, err := coord.complete(msg); err != nil || !ack.Accepted {
		t.Fatalf("complete through a flaky volume: %+v, %v", ack, err)
	}
	if fs.bites() == 0 {
		t.Fatal("flaky FS injected nothing; test is vacuous")
	}
	if p := coord.prefix(id); p != rep.Hi {
		t.Fatalf("prefix = %d, want %d", p, rep.Hi)
	}

	coord2 := NewCoordinator()
	coord2.LeaseUnits = 32
	coord2.Journal = &Journal{Dir: dir, Retry: noSleep()}
	id2, _, err := coord2.register(journalTestJob(t))
	if err != nil {
		t.Fatal(err)
	}
	if p := coord2.prefix(id2); p != rep.Hi {
		t.Fatalf("replayed prefix = %d, want %d", p, rep.Hi)
	}
}

// TestJournalExhaustedWriteLeavesLeaseIntact pins the write-ahead
// contract: when the completion record cannot be persisted at all,
// complete() must fail with the typed exhaustion error and leave BOTH
// the merge prefix and the lease untouched — the span is still covered
// by its TTL, so a healed volume resumes with no lost work.
func TestJournalExhaustedWriteLeavesLeaseIntact(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyJournalFS{failures: -1, match: "complete-"} // completion records never land
	jl := &Journal{Dir: dir, FS: fs, Retry: core.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, Sleep: func(time.Duration) {}}}
	coord := NewCoordinator()
	coord.LeaseUnits = 32
	coord.MaxGrants = 1
	coord.Journal = jl
	job := journalTestJob(t)
	id, _, err := coord.register(job)
	if err != nil {
		t.Fatal(err) // spec/grant records are unaffected by the match
	}
	rep := coord.grant("w")
	if rep.Status != LeaseGranted {
		t.Fatalf("no lease: %+v", rep)
	}
	msg := executeRange(t, job, rep.Lo, rep.Hi)
	msg.Job, msg.Lease = id, rep.Lease

	_, err = coord.complete(msg)
	if err == nil {
		t.Fatal("complete succeeded with an unwritable journal")
	}
	if !errors.Is(err, core.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want the checkpoint-store exhaustion error", err)
	}
	if p := coord.prefix(id); p != 0 {
		t.Fatalf("prefix advanced to %d past a failed write-ahead", p)
	}
	coord.mu.Lock()
	outstanding := len(coord.jobs[id].leases)
	coord.mu.Unlock()
	if outstanding != 1 {
		t.Fatalf("%d leases outstanding after the failed write, want 1 (TTL must still cover the span)", outstanding)
	}

	// The volume heals; the worker's retransmission now lands and merges.
	fs.heal()
	ack, err := coord.complete(msg)
	if err != nil || !ack.Accepted {
		t.Fatalf("retransmission after heal: %+v, %v", ack, err)
	}
	if p := coord.prefix(id); p != rep.Hi {
		t.Fatalf("prefix = %d after heal, want %d", p, rep.Hi)
	}
}
