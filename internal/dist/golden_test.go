package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned wire messages under testdata/golden")

// goldenJobs are one job per payload kind on the mesh fixture, shaped as
// the runners build them (the OLS sampling phase's seed offset included).
func goldenJobs(t *testing.T) map[string]*core.ExecJob {
	t.Helper()
	g := meshGraph(t)
	cands, err := core.PrepareCandidates(g, 40, 7, core.OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const sampleSeed = 7 ^ 0xa5a5a5a5deadbeef
	return map[string]*core.ExecJob{
		"os": {
			Kind: core.ExecOS, Graph: g, Seed: 7, Units: 1500,
			Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: 1500},
		},
		"optimized": {
			Kind: core.ExecOptimized, Graph: g, Cands: cands, Seed: sampleSeed, Units: 1500,
			Spec: core.ExecSpec{Method: "ols", Seed: 7, Trials: 1500, PrepTrials: 40},
		},
		"karp-luby": {
			Kind: core.ExecKarpLuby, Graph: g, Cands: cands, Seed: sampleSeed, Units: cands.Len(),
			KL:   core.KLOptions{BaseTrials: 1500, Mu: 0.05},
			Spec: core.ExecSpec{Method: "ols-kl", Seed: 7, Trials: 1500, PrepTrials: 40, Mu: 0.05},
		},
	}
}

// TestGoldenWireMessages pins the Version 1 JSON bytes of the first
// lease's JobSpec and LeaseComplete for each payload kind, so a worker
// and a coordinator built from different commits keep understanding each
// other. The pinned completion must also decode and be accepted by the
// current coordinator, and so must the OS completion as older workers
// send it, with the retired "prefix_fallbacks" counter. Run with
// -update-golden to rewrite the files.
func TestGoldenWireMessages(t *testing.T) {
	for name, job := range goldenJobs(t) {
		t.Run(name, func(t *testing.T) {
			coord, id, rep := goldenLease(t, job)
			msg, err := executeSpan(job, 1, rep.Lo, rep.Hi)
			if err != nil {
				t.Fatal(err)
			}
			msg.Worker, msg.Job, msg.Lease = "golden", id, rep.Lease
			spec := pinJSON(t, "jobspec-"+name+".json", rep.Job)
			var back JobSpec
			if err := json.Unmarshal(spec, &back); err != nil || back != *rep.Job {
				t.Fatalf("pinned job spec decodes to %+v (%v), want %+v", back, err, *rep.Job)
			}
			complete := pinJSON(t, "lease-complete-"+name+".json", msg)
			inputs := [][]byte{complete}
			if name == "os" {
				legacy := bytes.Replace(complete, []byte(`"cand_pruned":0}`), []byte(`"cand_pruned":0,"prefix_fallbacks":3}`), 1)
				if bytes.Equal(legacy, complete) {
					t.Fatal("pinned OS completion has no counters to extend")
				}
				inputs = append(inputs, legacy)
			}
			for i, data := range inputs {
				if i > 0 {
					coord, _, _ = goldenLease(t, job)
				}
				decoded, err := DecodeLeaseComplete(data)
				if err != nil {
					t.Fatalf("pinned completion rejected by the decoder: %v\n%s", err, data)
				}
				ack, err := coord.complete(decoded)
				if err != nil || !ack.Accepted {
					t.Fatalf("pinned completion refused by the coordinator: %+v, %v\n%s", ack, err, data)
				}
			}
		})
	}
}

// goldenLease registers job on a fresh coordinator leasing 8 units at a
// time and grants its first lease.
func goldenLease(t *testing.T, job *core.ExecJob) (*Coordinator, uint64, *LeaseReply) {
	t.Helper()
	coord := NewCoordinator()
	coord.LeaseUnits = 8
	id, _, err := coord.register(job)
	if err != nil {
		t.Fatal(err)
	}
	rep := coord.grant("golden")
	if rep.Status != LeaseGranted {
		t.Fatalf("no lease granted: %+v", rep)
	}
	return coord, id, rep
}

// pinJSON marshals v and requires the bytes to equal the pinned file
// testdata/golden/name (rewriting it first under -update-golden). It
// returns the pinned bytes.
func pinJSON(t *testing.T, name string, v any) []byte {
	t.Helper()
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pinned) {
		t.Fatalf("%s changed on the wire\n got: %s\nwant: %s", path, got, pinned)
	}
	return pinned
}
