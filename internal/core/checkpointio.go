package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// CheckpointFS is the filesystem seam the retrying CheckpointStore writes
// through. The production implementation is the real OS filesystem; tests
// inject flaky implementations to exercise the retry path without
// touching real storage. The contract mirrors the atomic-save protocol of
// SaveCheckpoint: data goes to a temp file which is renamed over the
// destination only after a successful write+close, so a failure at any
// step never leaves a torn checkpoint at the destination path.
type CheckpointFS interface {
	// CreateTemp creates a scratch file in dir with the given name
	// pattern (os.CreateTemp semantics).
	CreateTemp(dir, pattern string) (CheckpointFile, error)
	// Rename atomically moves the finished temp file over the
	// destination.
	Rename(oldpath, newpath string) error
	// Remove deletes a leftover temp file after a failed attempt.
	Remove(name string) error
	// Open opens a checkpoint for reading.
	Open(name string) (io.ReadCloser, error)
}

// CheckpointFile is the writable scratch file CreateTemp returns.
type CheckpointFile interface {
	io.Writer
	io.Closer
	// Name reports the file's path, for the Rename step.
	Name() string
}

// osFS is the production CheckpointFS.
type osFS struct{}

// OSFS is the real filesystem as a CheckpointFS, for callers that write
// their own records through the checkpoint store's protocol.
var OSFS CheckpointFS = osFS{}

func (osFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                { return os.Remove(name) }
func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// ErrRetriesExhausted reports that every attempt of a retried checkpoint
// operation failed. Match with errors.Is; the concrete
// *RetryExhaustedError carries the attempt count and the last error.
var ErrRetriesExhausted = errors.New("core: checkpoint retries exhausted")

// RetryExhaustedError is the typed error behind ErrRetriesExhausted.
type RetryExhaustedError struct {
	// Op is "save" or "load" (or a caller's own operation, such as the
	// dist journal's "journal"); Path is the file.
	Op   string
	Path string
	// Attempts is how many times the operation was tried before giving
	// up; Last is the final attempt's error (also the Unwrap target, so
	// the underlying cause stays inspectable).
	Attempts int
	Last     error
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("core: checkpoint %s %s failed after %d attempts: %v", e.Op, e.Path, e.Attempts, e.Last)
}

// Is makes errors.Is(err, ErrRetriesExhausted) succeed.
func (e *RetryExhaustedError) Is(target error) bool { return target == ErrRetriesExhausted }

// Unwrap exposes the last attempt's error to errors.Is/As chains.
func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// RetryPolicy shapes the exponential backoff between checkpoint I/O
// attempts: attempt k (0-based) sleeps min(BaseDelay·2^k, MaxDelay),
// scaled by a uniform jitter factor in [0.5, 1) so a fleet of workers
// hitting the same flaky volume does not retry in lockstep.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (the first try included).
	// Values below 1 behave as 1 — a single attempt, no retries.
	MaxAttempts int
	// BaseDelay is the pre-jitter sleep after the first failure; it
	// doubles per attempt up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter exponential growth. 0 means no cap.
	MaxDelay time.Duration
	// Seed makes the jitter sequence deterministic (tests, reproducible
	// runs). The zero seed is a valid deterministic stream of its own.
	Seed uint64
	// Sleep overrides time.Sleep (tests record delays instead of
	// waiting). Nil means time.Sleep.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy matches transient-storage guidance: 4 attempts,
// 50 ms base, 2 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// backoff returns the post-jitter sleep before retry attempt k (0-based
// index of the attempt that just failed).
func (p RetryPolicy) backoff(k int, rng *randx.RNG) time.Duration {
	d := p.BaseDelay
	for i := 0; i < k && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	// Jitter in [0.5, 1): enough spread to de-synchronize, never more
	// than the nominal delay.
	return time.Duration((0.5 + 0.5*rng.Float64()) * float64(d))
}

// Do runs attempt until it succeeds or the policy's attempt budget is
// spent, sleeping the jittered backoff between attempts, and reports each
// failed attempt's 1-based number and error to failed (when non-nil).
// After the last failure it returns a *RetryExhaustedError for op on path.
func (p RetryPolicy) Do(op, path string, attempt func() error, failed func(k int, err error)) error {
	n := max(p.MaxAttempts, 1)
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	rng := randx.New(p.Seed)
	var last error
	for k := 0; k < n; k++ {
		if k > 0 {
			sleep(p.backoff(k-1, rng))
		}
		if last = attempt(); last == nil {
			return nil
		}
		if failed != nil {
			failed(k+1, last)
		}
	}
	return &RetryExhaustedError{Op: op, Path: path, Attempts: n, Last: last}
}

// WriteAtomic writes path through fs (nil: the real filesystem) with the
// temp-file-then-rename protocol: write fills a fresh temporary file,
// created in path's directory ("." for a bare file name, so the rename
// never crosses volumes) under a dot-prefixed name, which replaces path
// only after the write and the close succeed, so a failure at any step
// leaves path as it was.
func WriteAtomic(fs CheckpointFS, path string, write func(io.Writer) error) error {
	if fs == nil {
		fs = osFS{}
	}
	f, err := fs.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return nil
}

// saveCheckpoint encodes c to path through fs with WriteAtomic.
func saveCheckpoint(fs CheckpointFS, path string, c *Checkpoint) error {
	return WriteAtomic(fs, path, func(w io.Writer) error {
		if err := c.Encode(w); err != nil {
			return fmt.Errorf("core: writing checkpoint %s: %w", path, err)
		}
		return nil
	})
}

// loadCheckpoint decodes the checkpoint at path through fs.
func loadCheckpoint(fs CheckpointFS, path string) (*Checkpoint, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint %s: %w", path, err)
	}
	return c, nil
}

// CheckpointStore saves and loads checkpoints through a CheckpointFS,
// retrying transient failures with exponential backoff and jitter. The
// zero value is NOT usable; construct with NewCheckpointStore.
type CheckpointStore struct {
	retry RetryPolicy
	fs    CheckpointFS
	probe *telemetry.Probe
}

// SetProbe attaches run telemetry to the store: successful saves,
// retried attempts of either operation, and the corresponding events.
// A nil probe (the default) disables instrumentation.
func (s *CheckpointStore) SetProbe(p *telemetry.Probe) { s.probe = p }

// NewCheckpointStore builds a store over the real filesystem with the
// given retry policy (pass DefaultRetryPolicy() for the standard one).
func NewCheckpointStore(policy RetryPolicy) *CheckpointStore {
	return NewCheckpointStoreFS(policy, nil)
}

// NewCheckpointStoreFS is NewCheckpointStore with an injectable
// filesystem; fs nil means the real one. This is the fault-injection seam
// the retry tests (and any caller wrapping exotic storage) use.
func NewCheckpointStoreFS(policy RetryPolicy, fs CheckpointFS) *CheckpointStore {
	if fs == nil {
		fs = osFS{}
	}
	return &CheckpointStore{retry: policy, fs: fs}
}

// Save writes the checkpoint to path with the same atomic
// temp-file-then-rename protocol as SaveCheckpoint, retrying transient
// failures per the store's policy. Every attempt starts from a fresh temp
// file renamed over path only once written and closed: after a failed
// save or a process crash, path holds no torn checkpoint. Nothing is
// fsynced, so a machine crash may still lose or tear the latest save.
// After the attempt budget the typed *RetryExhaustedError (errors.Is
// ErrRetriesExhausted) reports the last cause.
func (s *CheckpointStore) Save(path string, c *Checkpoint) error {
	// Validation errors are deterministic: retrying cannot fix an invalid
	// checkpoint, so surface them immediately.
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: refusing to save invalid checkpoint: %w", err)
	}
	if err := s.retry.Do("save", path, func() error { return saveCheckpoint(s.fs, path, c) }, s.retried("save", path)); err != nil {
		return err
	}
	s.probe.Add(0, telemetry.CounterCheckpointSaves, 1)
	s.probe.Emit(telemetry.Event{
		Kind: telemetry.EventCheckpointSaved, Trial: c.Done, Detail: path,
	})
	return nil
}

// Load reads a checkpoint from path, retrying failures per the store's
// policy. Decode failures retry too: saves are atomic, so a decode error
// on a flaky volume is far more likely a transiently failing read than a
// genuinely torn file, and a truly corrupt file just costs the small
// retry budget before surfacing its decode error as the Last cause.
func (s *CheckpointStore) Load(path string) (*Checkpoint, error) {
	var c *Checkpoint
	err := s.retry.Do("load", path, func() (err error) {
		c, err = loadCheckpoint(s.fs, path)
		return err
	}, s.retried("load", path))
	if err != nil {
		return nil, err
	}
	return c, nil
}

// retried returns the store's failed-attempt hook for op on path: it
// counts the retry and emits its event.
func (s *CheckpointStore) retried(op, path string) func(int, error) {
	return func(k int, err error) {
		s.probe.Add(0, telemetry.CounterCheckpointRetries, 1)
		s.probe.Emit(telemetry.Event{
			Kind: telemetry.EventCheckpointRetried, N: int64(k),
			Detail: op + " " + path + ": " + err.Error(),
		})
	}
}
