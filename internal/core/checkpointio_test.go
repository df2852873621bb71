package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// makeCheckpoint produces a small valid checkpoint for I/O tests.
func makeCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	g := figure1Graph()
	var polls int
	res, err := OS(g, OSOptions{Trials: 100, Seed: 3, Interrupt: func() bool {
		polls++
		return polls > 40
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil {
		t.Fatal("expected a partial run with a checkpoint")
	}
	return res.Checkpoint
}

// flakyFS wraps the real filesystem seam and fails the first N operations
// of selected kinds with a transient error.
type flakyFS struct {
	real       osFS
	failCreate int
	failWrite  int
	failRename int
	failOpen   int
	failRead   int
	ops        []string // every attempted primitive, for assertions
}

var errTransient = errors.New("injected transient I/O failure")

func (f *flakyFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	f.ops = append(f.ops, "create")
	if f.failCreate > 0 {
		f.failCreate--
		return nil, errTransient
	}
	file, err := f.real.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &flakyFile{CheckpointFile: file, fs: f}, nil
}

func (f *flakyFS) Rename(oldpath, newpath string) error {
	f.ops = append(f.ops, "rename")
	if f.failRename > 0 {
		f.failRename--
		return errTransient
	}
	return f.real.Rename(oldpath, newpath)
}

func (f *flakyFS) Remove(name string) error {
	f.ops = append(f.ops, "remove")
	return f.real.Remove(name)
}

func (f *flakyFS) Open(name string) (io.ReadCloser, error) {
	f.ops = append(f.ops, "open")
	if f.failOpen > 0 {
		f.failOpen--
		return nil, errTransient
	}
	rc, err := f.real.Open(name)
	if err != nil {
		return nil, err
	}
	if f.failRead > 0 {
		f.failRead--
		rc.Close()
		// A reader that dies mid-stream: yields a prefix, then an error.
		return io.NopCloser(&failingReader{}), nil
	}
	return rc, nil
}

// flakyFile injects write failures into an otherwise real temp file.
type flakyFile struct {
	CheckpointFile
	fs *flakyFS
}

func (w *flakyFile) Write(p []byte) (int, error) {
	if w.fs.failWrite > 0 {
		w.fs.failWrite--
		return 0, errTransient
	}
	return w.CheckpointFile.Write(p)
}

// failingReader returns a few magic bytes then a transient error —
// a read that dies partway through the stream.
type failingReader struct{ n int }

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 && len(p) >= 4 {
		r.n = 4
		return copy(p, ckptMagic[:4]), nil
	}
	return 0, errTransient
}

// recordedSleeps captures the backoff schedule instead of waiting.
func recordedSleeps(dst *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *dst = append(*dst, d) }
}

func TestCheckpointStoreSaveRetriesTransientFailures(t *testing.T) {
	ck := makeCheckpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	var sleeps []time.Duration
	fs := &flakyFS{failCreate: 1, failRename: 1} // first two attempts fail
	store := NewCheckpointStoreFS(RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Sleep:       recordedSleeps(&sleeps),
	}, fs)
	if err := store.Save(path, ck); err != nil {
		t.Fatalf("save should succeed on the third attempt: %v", err)
	}
	if len(sleeps) != 2 {
		t.Fatalf("expected 2 backoff sleeps, got %v", sleeps)
	}
	// Exponential with jitter in [0.5, 1): attempt k sleeps within
	// [base·2^k/2, base·2^k).
	base := 10 * time.Millisecond
	for k, d := range sleeps {
		nominal := base << k
		if d < nominal/2 || d >= nominal {
			t.Errorf("sleep %d = %v outside [%v, %v)", k, d, nominal/2, nominal)
		}
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("saved checkpoint does not load: %v", err)
	}
	if loaded.Done != ck.Done || loaded.Seed != ck.Seed {
		t.Errorf("loaded checkpoint differs: %+v vs %+v", loaded, ck)
	}
}

func TestCheckpointStoreSaveExhaustsBudgetTyped(t *testing.T) {
	ck := makeCheckpoint(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var sleeps []time.Duration
	fs := &flakyFS{failCreate: 100} // never succeeds
	store := NewCheckpointStoreFS(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Sleep:       recordedSleeps(&sleeps),
	}, fs)
	err := store.Save(path, ck)
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("error %v does not match ErrRetriesExhausted", err)
	}
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RetryExhaustedError", err)
	}
	if re.Op != "save" || re.Attempts != 3 || !errors.Is(re, errTransient) {
		t.Errorf("exhaustion fields %+v (last=%v)", re, re.Last)
	}
	if len(sleeps) != 2 {
		t.Errorf("3 attempts should sleep twice, got %v", sleeps)
	}
	if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("failed save must not create the destination: %v", statErr)
	}
}

// A save whose write or rename fails must never tear an existing
// checkpoint: the destination keeps the previous valid bytes, and no temp
// litter survives.
func TestCheckpointStoreSaveNeverTears(t *testing.T) {
	ck := makeCheckpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck2 := makeCheckpoint(t)
	ck2.Done++ // any distinguishable mutation
	fs := &flakyFS{failWrite: 100, failRename: 100}
	store := NewCheckpointStoreFS(RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}, fs)
	if err := store.Save(path, ck2); err == nil {
		t.Fatal("expected the save to fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save modified the existing checkpoint")
	}
	if _, err := DecodeCheckpoint(bytes.NewReader(after)); err != nil {
		t.Errorf("existing checkpoint no longer decodes: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestCheckpointStoreLoadRetriesOpenAndRead(t *testing.T) {
	ck := makeCheckpoint(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	var sleeps []time.Duration
	fs := &flakyFS{failOpen: 1, failRead: 1} // fail once at open, once mid-read
	store := NewCheckpointStoreFS(RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		Sleep:       recordedSleeps(&sleeps),
	}, fs)
	got, err := store.Load(path)
	if err != nil {
		t.Fatalf("load should succeed after transient failures: %v", err)
	}
	if got.Done != ck.Done {
		t.Errorf("loaded Done=%d, want %d", got.Done, ck.Done)
	}
	if len(sleeps) != 2 {
		t.Errorf("expected 2 retry sleeps, got %v", sleeps)
	}
}

func TestCheckpointStoreLoadExhaustsBudgetTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.ckpt")
	store := NewCheckpointStoreFS(RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}}, &flakyFS{})
	_, err := store.Load(path)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("error %v does not match ErrRetriesExhausted", err)
	}
	var re *RetryExhaustedError
	if !errors.As(err, &re) || re.Op != "load" || re.Attempts != 2 {
		t.Errorf("exhaustion fields %+v", re)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("underlying cause lost: %v", err)
	}
}

func TestCheckpointStoreDeterministicJitter(t *testing.T) {
	ck := makeCheckpoint(t)
	run := func() []time.Duration {
		var sleeps []time.Duration
		fs := &flakyFS{failCreate: 100}
		store := NewCheckpointStoreFS(RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   time.Millisecond,
			Seed:        42,
			Sleep:       recordedSleeps(&sleeps),
		}, fs)
		store.Save(filepath.Join(t.TempDir(), "x.ckpt"), ck)
		return sleeps
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("jitter not deterministic for a fixed seed: %v vs %v", a, b)
	}
}

func TestCheckpointStoreInvalidCheckpointNoRetry(t *testing.T) {
	var sleeps []time.Duration
	store := NewCheckpointStoreFS(RetryPolicy{MaxAttempts: 5, Sleep: recordedSleeps(&sleeps)}, &flakyFS{})
	err := store.Save(filepath.Join(t.TempDir(), "x.ckpt"), &Checkpoint{Method: "nope"})
	if err == nil {
		t.Fatal("invalid checkpoint must not save")
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Error("validation failure burned the retry budget")
	}
	if len(sleeps) != 0 {
		t.Errorf("validation failure slept: %v", sleeps)
	}
}

func TestCheckpointStoreRoundTripRealFS(t *testing.T) {
	ck := makeCheckpoint(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	store := NewCheckpointStore(DefaultRetryPolicy())
	if err := store.Save(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Resume through the loaded checkpoint and compare with the plain
	// single-attempt loader's result.
	g := figure1Graph()
	a, err := OS(g, OSOptions{Trials: 100, Seed: 3, Resume: got})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OS(g, OSOptions{Trials: 100, Seed: 3, Resume: plain})
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, a.Estimates, b.Estimates)
}

// dirFS is the real filesystem with relative paths resolved under root,
// recording the directory and name pattern of every CreateTemp.
type dirFS struct {
	osFS
	root     string
	dirs     []string
	patterns []string
}

func (f *dirFS) at(p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(f.root, p)
}

func (f *dirFS) CreateTemp(dir, pattern string) (CheckpointFile, error) {
	f.dirs = append(f.dirs, dir)
	f.patterns = append(f.patterns, pattern)
	return f.osFS.CreateTemp(f.at(dir), pattern)
}

func (f *dirFS) Rename(oldpath, newpath string) error {
	return f.osFS.Rename(oldpath, f.at(newpath))
}

// TestWriteAtomicTempBesideTarget pins where WriteAtomic stages its temp
// file: in the target's own directory — "." for a bare file name, never
// os.TempDir(), so the final rename cannot cross volumes — under a
// dot-prefixed name that directory listings can skip.
func TestWriteAtomicTempBesideTarget(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, dir string }{
		{"run.ckpt", "."},
		{filepath.Join("sub", "run.ckpt"), "sub"},
		{filepath.Join(root, "abs.ckpt"), root},
	} {
		fs := &dirFS{root: root}
		err := WriteAtomic(fs, tc.path, func(w io.Writer) error {
			_, err := io.WriteString(w, tc.path)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(fs.dirs) != 1 || fs.dirs[0] != tc.dir {
			t.Errorf("%s: CreateTemp got directories %q, want [%q]", tc.path, fs.dirs, tc.dir)
		}
		if want := "." + filepath.Base(tc.path) + ".tmp*"; fs.patterns[0] != want {
			t.Errorf("%s: temp pattern %q, want %q", tc.path, fs.patterns[0], want)
		}
		got, err := os.ReadFile(fs.at(tc.path))
		if err != nil || string(got) != tc.path {
			t.Errorf("%s: target holds %q (%v)", tc.path, got, err)
		}
	}
	for _, dir := range []string{root, filepath.Join(root, "sub")} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp") {
				t.Errorf("temp file %s left in %s", e.Name(), dir)
			}
		}
	}
}
