package serve

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestConcurrentJobsCountOwnCheckpoints runs two checkpoint-sliced jobs
// at once over the daemon's one retrying checkpoint store. Each job must
// still see exactly its own saves: its checkpoint counter equals the
// saves of its own checkpoint file in its journal, and no journal records
// another job's save. Under -race this also pins that concurrent jobs do
// not share the store's instrumentation.
func TestConcurrentJobsCountOwnCheckpoints(t *testing.T) {
	graphs, state := t.TempDir(), t.TempDir()
	buildMeshGraph(t, graphs, "mesh.graph")
	srv, hs := testServer(t, Config{
		GraphRoot: graphs, StateDir: state,
		Workers: 2, CheckpointEvery: 2 * time.Millisecond, JournalEvents: true,
	})
	var ids []string
	for seed := 1; seed <= 2; seed++ {
		id, _ := submitJob(t, hs.URL, "", map[string]any{
			"graph": "mesh.graph", "method": "os", "trials": 30000, "seed": seed,
		})
		if id == "" {
			t.Fatal("submission rejected")
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if doc := waitState(t, hs.URL, id, JobDone, JobFailed); doc.State != JobDone {
			t.Fatalf("job %s failed: %s", id, doc.Error)
		}
	}
	// Drain joins the runners, which close their journals on the way out.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f, err := os.Open(filepath.Join(state, "events", id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		saves := 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e struct {
				Kind   string `json:"kind"`
				Detail string `json:"detail"`
			}
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if e.Kind != "checkpoint_saved" {
				continue
			}
			if !strings.HasSuffix(e.Detail, id+".ckpt") {
				t.Fatalf("job %s journal records a save of %s", id, e.Detail)
			}
			saves++
		}
		f.Close()
		if saves == 0 {
			t.Fatalf("job %s never checkpointed; the fixture is too fast for the slice length", id)
		}
		j, _ := srv.job(id)
		m := j.liveMetrics()
		if m == nil || m.CheckpointSaves != int64(saves) {
			t.Fatalf("job %s metrics %+v, want %d checkpoint saves", id, m, saves)
		}
	}
}
