package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned figure series under testdata/golden")

// TestGoldenFigureSeries pins the Fig. 11 and Fig. 12 series of a small
// configuration on every dataset, JSON-encoded under testdata/golden. It
// covers both Karp-Luby trace branches: a target priced without sampling
// (flat series) and a sampled one. Run with -update-golden to rewrite the
// files.
func TestGoldenFigureSeries(t *testing.T) {
	opt := DefaultOptions()
	opt.Scale = 0.05
	opt.SampleTrials = 200
	opt.PrepTrials = 20
	figs := []struct {
		name string
		run  func(Options) (any, error)
	}{
		{"fig11", func(o Options) (any, error) { return RunSamplingConvergence(o) }},
		{"fig12", func(o Options) (any, error) { return RunPreparingTrend(o) }},
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			res, err := f.run(opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", f.name+".json")
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
				t.Fatalf("%s series differ from %s:\ngot:\n%s", f.name, path, got)
			}
		})
	}
}
