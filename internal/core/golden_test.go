package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned checkpoints under testdata/golden")

// goldenRun is one interrupted run of a small fixture whose checkpoint
// is pinned under testdata/golden: run executes it with the given
// interrupt hook and resume checkpoint (either may be nil), and the
// pinned checkpoint is the one cut after cut interrupt polls.
type goldenRun struct {
	name string
	cut  int64
	run  func(interrupt func() bool, resume *Checkpoint) (*Result, error)
}

// goldenRuns covers every checkpoint payload kind on the Figure 1
// fixture: butterfly tallies (mc-vp, os, and the OLS preparing phase), the
// optimized estimator's candidate counts (ols), and the Karp-Luby vectors
// (ols-kl). ols-ties adds candidate counts over a heaviest weight class
// whose members exist together.
func goldenRuns() []goldenRun {
	g := figure1Graph()
	const full = 150
	ols := func(g *bigraph.Graph, o OLSOptions) func(func() bool, *Checkpoint) (*Result, error) {
		return func(interrupt func() bool, resume *Checkpoint) (*Result, error) {
			o.Interrupt, o.Resume = interrupt, resume
			return OLS(g, o)
		}
	}
	return []goldenRun{
		{"mc-vp", 41, func(interrupt func() bool, resume *Checkpoint) (*Result, error) {
			return MCVP(g, MCVPOptions{Trials: full, Seed: 9, Interrupt: interrupt, Resume: resume})
		}},
		{"os", 41, func(interrupt func() bool, resume *Checkpoint) (*Result, error) {
			return OS(g, OSOptions{Trials: full, Seed: 9, Interrupt: interrupt, Resume: resume})
		}},
		{"ols-prepare", 7, ols(g, OLSOptions{PrepTrials: 25, Trials: full, Seed: 9})},
		{"ols", 25 + 41, ols(g, OLSOptions{PrepTrials: 25, Trials: full, Seed: 9})},
		{"ols-kl", 30 + 2, ols(g, OLSOptions{PrepTrials: 30, Trials: 80, Seed: 9, UseKarpLuby: true, KL: KLOptions{Mu: 0.1}})},
		{"ols-ties", 20 + 41, ols(tiesGraph(), OLSOptions{PrepTrials: 20, Trials: full, Seed: 9})},
	}
}

// tiesGraph is a half-grid fixture whose heaviest weight class has
// members that exist together: {u0, u1} × {v0, v1, v2} at weight 2 forms
// three butterflies of weight 8, and u2's lighter edges form three
// lighter classes of two butterflies each.
func tiesGraph() *bigraph.Graph {
	b := bigraph.NewBuilder(3, 3)
	b.MustAddEdge(0, 0, 2, 0.9)
	b.MustAddEdge(0, 1, 2, 0.75)
	b.MustAddEdge(0, 2, 2, 0.5)
	b.MustAddEdge(1, 0, 2, 0.75)
	b.MustAddEdge(1, 1, 2, 0.9)
	b.MustAddEdge(1, 2, 2, 0.5)
	b.MustAddEdge(2, 0, 1.5, 0.75)
	b.MustAddEdge(2, 1, 1, 0.9)
	b.MustAddEdge(2, 2, 0.5, 0.5)
	return b.Build()
}

// TestGoldenCheckpoints pins the MPMBCKP1 v1 bytes of one checkpoint per
// payload kind. Each pinned file must decode, re-encode to the same
// bytes, resume to the uninterrupted run's Result, and equal the
// checkpoint the current code cuts at the same point. Run with
// -update-golden to rewrite the files.
func TestGoldenCheckpoints(t *testing.T) {
	for _, gr := range goldenRuns() {
		t.Run(gr.name, func(t *testing.T) {
			part, err := gr.run(interruptAfter(gr.cut), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !part.Partial || part.Checkpoint == nil {
				t.Fatalf("run cut after %d polls is not partial with a checkpoint", gr.cut)
			}
			var cut bytes.Buffer
			if err := part.Checkpoint.Encode(&cut); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", gr.name+".ckpt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, cut.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pinned, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cut.Bytes(), pinned) {
				t.Fatalf("checkpoint cut after %d polls differs from %s", gr.cut, path)
			}
			ck, err := DecodeCheckpoint(bytes.NewReader(pinned))
			if err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
			var again bytes.Buffer
			if err := ck.Encode(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), pinned) {
				t.Fatalf("%s does not re-encode byte-identically", path)
			}
			ref, err := gr.run(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := gr.run(nil, ck)
			if err != nil {
				t.Fatal(err)
			}
			assertCompleteMatch(t, resumed, ref)
		})
	}
}

// TestGoldenTiesCheckpointFromFullScan pins resuming a checkpoint whose
// optimized-estimator counts come from trials that scanned the whole
// heaviest weight class. testdata/golden/ols-ties-parent.ckpt was cut,
// at the ols-ties point, by code that counted every existing member of
// that class in each trial. It must decode, differ from the checkpoint
// cut now, and still resume to the uninterrupted Result: the finish
// prices that class whatever its counts, and the lighter counts agree.
func TestGoldenTiesCheckpointFromFullScan(t *testing.T) {
	var gr goldenRun
	for _, r := range goldenRuns() {
		if r.name == "ols-ties" {
			gr = r
		}
	}
	path := filepath.Join("testdata", "golden", "ols-ties-parent.ckpt")
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(bytes.NewReader(pinned))
	if err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	part, err := gr.run(interruptAfter(gr.cut), nil)
	if err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	if err := part.Checkpoint.Encode(&cut); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(cut.Bytes(), pinned) {
		t.Fatalf("%s equals the checkpoint cut now, so it pins no full-scan counts", path)
	}
	ref, err := gr.run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := gr.run(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	assertCompleteMatch(t, resumed, ref)
}
