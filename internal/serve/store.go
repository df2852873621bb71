package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// stateStore is the daemon's durable layout under Config.StateDir:
//
//	jobs/<id>.json         job manifest (atomic JSON, the recovery root)
//	checkpoints/<id>.ckpt  engine checkpoint (retrying CheckpointStore)
//	results/<id>.json      finished result document (atomic JSON)
//	events/<id>.jsonl      telemetry event journal (when enabled)
//
// Manifests and results are written temp-file-then-rename so a crash at
// any instant leaves either the old bytes or the new bytes, never a torn
// file. Checkpoints go through core.CheckpointStore, which adds retry
// with exponential backoff on top of the same atomic protocol.
type stateStore struct {
	dir  string
	ckpt *core.CheckpointStore
}

func newStateStore(dir string) (*stateStore, error) {
	for _, sub := range []string{"jobs", "checkpoints", "results", "events"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating state dir: %w", err)
		}
	}
	return &stateStore{dir: dir, ckpt: core.NewCheckpointStore(core.DefaultRetryPolicy())}, nil
}

func (st *stateStore) manifestPath(id string) string {
	return filepath.Join(st.dir, "jobs", id+".json")
}
func (st *stateStore) checkpointPath(id string) string {
	return filepath.Join(st.dir, "checkpoints", id+".ckpt")
}
func (st *stateStore) resultPath(id string) string {
	return filepath.Join(st.dir, "results", id+".json")
}
func (st *stateStore) journalPath(id string) string {
	return filepath.Join(st.dir, "events", id+".jsonl")
}

func (st *stateStore) saveManifest(m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding manifest %s: %w", m.ID, err)
	}
	err = core.WriteAtomic(nil, st.manifestPath(m.ID), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: persisting manifest %s: %w", m.ID, err)
	}
	return nil
}

// removeManifest erases a job that was rejected after its manifest was
// written (queue-full race); rejected work leaves no recovery residue.
func (st *stateStore) removeManifest(id string) {
	os.Remove(st.manifestPath(id))
}

// loadManifests reads every persisted job, skipping files that do not
// parse (a torn write is impossible by construction, so a bad file is
// foreign — better to serve the rest than refuse to start).
func (st *stateStore) loadManifests() ([]manifest, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: reading job manifests: %w", err)
	}
	var out []manifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "jobs", e.Name()))
		if err != nil {
			return nil, fmt.Errorf("serve: reading manifest %s: %w", e.Name(), err)
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID == "" {
			continue
		}
		out = append(out, m)
	}
	return out, nil
}

// jobCheckpoints returns a copy of the retrying checkpoint store
// instrumented with one job's observer. Concurrent jobs each get their
// own, so each job's checkpoint counters and events go to that job.
func (st *stateStore) jobCheckpoints(obs *mpmb.Observer) *core.CheckpointStore {
	c := *st.ckpt
	obs.InstrumentStore(&c)
	return &c
}

// saveCheckpoint persists a job's engine checkpoint through the job's
// retrying store.
func (st *stateStore) saveCheckpoint(ckpt *core.CheckpointStore, id string, ck *core.Checkpoint) error {
	return ckpt.Save(st.checkpointPath(id), ck)
}

// loadCheckpoint returns the job's checkpoint, or (nil, nil) when none
// exists — absence is the common case, not an error worth retrying.
func (st *stateStore) loadCheckpoint(ckpt *core.CheckpointStore, id string) (*core.Checkpoint, error) {
	path := st.checkpointPath(id)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return ckpt.Load(path)
}

func (st *stateStore) removeCheckpoint(id string) {
	os.Remove(st.checkpointPath(id))
}

func (st *stateStore) saveResult(doc resultDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding result %s: %w", doc.ID, err)
	}
	err = core.WriteAtomic(nil, st.resultPath(doc.ID), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: persisting result %s: %w", doc.ID, err)
	}
	return nil
}

// removeResult and removeJournal erase a retired job's result document
// and event journal during retention eviction.
func (st *stateStore) removeResult(id string) {
	os.Remove(st.resultPath(id))
}

func (st *stateStore) removeJournal(id string) {
	os.Remove(st.journalPath(id))
}

// loadResult returns the persisted result document bytes, or
// (nil, nil) when none exists.
func (st *stateStore) loadResult(id string) ([]byte, error) {
	data, err := os.ReadFile(st.resultPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}
