package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// Journal is the coordinator's write-ahead record of a run: every lease
// grant and every accepted span completion is persisted as its own
// atomically-renamed file before the in-memory state advances, so a
// coordinator killed at ANY instant can be restarted and re-derive its
// frontier, merged prefix and outstanding spans exactly. Replay rides
// the same idempotent merge the live protocol uses — a record applied
// twice, out of order, or past a crash mid-write is absorbed, not
// corrupting.
//
// Records are written through the same retrying core.CheckpointFS seam
// as checkpoints: a flaky volume gets the checkpoint store's
// exponential-backoff treatment, and exhaustion surfaces as the typed
// *core.RetryExhaustedError, which the completion handler turns into a
// 500 the worker's transport retries.
//
// Layout: Dir/<identity-hash>/spec.json (the job's identity),
// grant-<lo>.json (frontier bookkeeping, one per span, best-effort) and
// complete-<lo>.json (the full LeaseComplete, write-ahead of the merge).
// The per-job directory is removed when the job is collected.
type Journal struct {
	// Dir is the journal root. One subdirectory per journaled job,
	// keyed by a hash of the job's identity (spec minus the ephemeral
	// job id), so a restarted coordinator registering the identical job
	// finds its predecessor's records.
	Dir string
	// FS is the filesystem records are written through (nil = the real
	// one). Directory scans and removal during replay use the real
	// filesystem regardless — only record I/O is injectable.
	FS core.CheckpointFS
	// Retry shapes the per-record retry loop (zero value =
	// core.DefaultRetryPolicy()).
	Retry core.RetryPolicy
}

func (jl *Journal) fs() core.CheckpointFS {
	if jl.FS != nil {
		return jl.FS
	}
	return osJournalFS
}

// osJournalFS is the journal's default record I/O: the real filesystem.
var osJournalFS = core.OSFS

func (jl *Journal) retry() core.RetryPolicy {
	p := jl.Retry
	if p.MaxAttempts == 0 && p.BaseDelay == 0 && p.MaxDelay == 0 {
		d := core.DefaultRetryPolicy()
		d.Seed = p.Seed
		d.Sleep = p.Sleep
		p = d
	}
	return p
}

// jobKey hashes a job's identity: everything in the spec except the
// ephemeral per-process job id. Two registrations of the same logical
// run — a crashed coordinator's and its successor's — land on the same
// key and therefore the same journal directory.
func jobKey(spec JobSpec) string {
	spec.Job = 0
	data, err := json.Marshal(spec)
	if err != nil {
		// JobSpec is a plain value struct; this cannot fail.
		panic(fmt.Sprintf("dist: encoding job identity: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// sameIdentity reports whether two specs describe the same logical run,
// ignoring the ephemeral job id.
func sameIdentity(a, b JobSpec) bool {
	a.Job, b.Job = 0, 0
	return a == b
}

// grantRecord is the journal's frontier bookkeeping for one span.
type grantRecord struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// writeRecord atomically persists one record with core's
// temp-file-then-rename protocol, retrying transient failures per the
// journal's policy.
func (jl *Journal) writeRecord(dir, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encoding journal record %s: %w", name, err)
	}
	path := filepath.Join(dir, name)
	return jl.retry().Do("journal", path, func() error {
		return core.WriteAtomic(jl.fs(), path, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}, nil)
}

// readRecord loads and decodes one record through the FS seam.
func (jl *Journal) readRecord(path string, v any) error {
	f, err := jl.fs().Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

// adoptLocked hooks a freshly registered job up to its journal. If a
// prior epoch left records for the same identity, they are replayed:
// completions feed the standard validation + idempotent merge (so the
// prefix, aggregate and probe counters come back exactly), and every
// granted-but-uncompleted span below the recovered frontier is queued
// for immediate reissue — the crashed epoch's leases died with it.
// Otherwise the directory is (re)initialized with the job's identity.
// Called with the coordinator lock held, before the job is published.
func (c *Coordinator) adoptLocked(j *distJob) error {
	jl := c.Journal
	dir := filepath.Join(jl.Dir, jobKey(j.spec))
	j.jdir = dir
	j.granted = make(map[int]bool)
	var prior JobSpec
	if err := jl.readRecord(filepath.Join(dir, "spec.json"), &prior); err == nil && sameIdentity(prior, j.spec) {
		jl.replayLocked(j, dir)
		return nil
	}
	// No usable prior epoch (first run, or a stale identity collision):
	// start the journal fresh.
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("dist: resetting journal %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dist: creating journal %s: %w", dir, err)
	}
	if err := jl.writeRecord(dir, "spec.json", j.spec); err != nil {
		return fmt.Errorf("dist: journaling job identity: %w", err)
	}
	return nil
}

// replayLocked applies a prior epoch's records to a fresh job. Corrupt
// or torn records are skipped, never fatal: a lost completion just
// recomputes bit-identically, a lost grant just shrinks the recovered
// frontier.
func (jl *Journal) replayLocked(j *distJob, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	frontier := j.spec.Start
	var completes []*LeaseComplete
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "grant-") && strings.HasSuffix(name, ".json"):
			var g grantRecord
			if err := jl.readRecord(filepath.Join(dir, name), &g); err != nil {
				continue
			}
			j.granted[g.Lo] = true
			if g.Hi > frontier {
				frontier = g.Hi
			}
		case strings.HasPrefix(name, "complete-") && strings.HasSuffix(name, ".json"):
			var msg LeaseComplete
			if err := jl.readRecord(filepath.Join(dir, name), &msg); err != nil {
				continue
			}
			completes = append(completes, &msg)
		}
	}
	sort.Slice(completes, func(x, y int) bool { return completes[x].Lo < completes[y].Lo })
	for _, msg := range completes {
		// The record was validated when first accepted; re-validate
		// anyway so a corrupted file cannot poison the merge.
		if j.check(msg) != nil {
			continue
		}
		if _, dup := j.completed[msg.Lo]; dup {
			continue
		}
		j.completed[msg.Lo] = msg.Hi
		j.pending[msg.Lo] = &pendingRange{span: span{msg.Lo, msg.Hi}, payload: msg.Payload, counters: msg.Counters}
		if msg.Hi > frontier {
			frontier = msg.Hi
		}
	}
	j.advanceLocked()
	// Re-derive the grant frontier: fresh grants resume past the highest
	// journaled span, and every uncompleted span below it is reissued
	// immediately.
	j.nextLo = frontier + 1
	for lo := j.spec.Start + 1; lo <= frontier; lo += j.spec.LeaseUnits {
		if _, done := j.completed[lo]; done {
			continue
		}
		hi := lo + j.spec.LeaseUnits - 1
		if hi > j.spec.Units {
			hi = j.spec.Units
		}
		j.freed = append(j.freed, span{lo: lo, hi: hi})
	}
	sort.Slice(j.freed, func(x, y int) bool { return j.freed[x].lo < j.freed[y].lo })
	if j.prefix == j.spec.Units && !j.halted {
		j.halted = true
		close(j.done)
	}
}

// journalGrantLocked persists frontier bookkeeping for a fresh or
// reissued span, once per span. Best-effort: a lost grant record only
// shrinks the recovered frontier, costing recomputation, never
// correctness.
func (c *Coordinator) journalGrantLocked(j *distJob, sp span) {
	if c.Journal == nil || j.jdir == "" || j.granted[sp.lo] {
		return
	}
	j.granted[sp.lo] = true
	c.Journal.writeRecord(j.jdir, fmt.Sprintf("grant-%010d.json", sp.lo), grantRecord{Lo: sp.lo, Hi: sp.hi})
}

// journalCompleteLocked write-ahead persists an accepted completion.
// Unlike grants this MUST land before the merge advances: the reply to
// the worker promises the span is durable. Failure surfaces to the
// completion handler as a 500 the worker's transport retries.
func (c *Coordinator) journalCompleteLocked(j *distJob, msg *LeaseComplete) error {
	if c.Journal == nil || j.jdir == "" {
		return nil
	}
	return c.Journal.writeRecord(j.jdir, fmt.Sprintf("complete-%010d.json", msg.Lo), msg)
}

// discard removes a collected job's journal: the run's result has been
// handed to the caller, so the records have nothing left to protect.
func (jl *Journal) discard(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}
