// Command corpusgen regenerates the checked-in fuzz seed corpora under
// internal/dist/testdata/fuzz/. Run from the repository root:
//
//	go run ./internal/dist/testdata/corpusgen
//
// The files duplicate the in-code f.Add seeds on purpose: the checked-in
// corpus is what CI's -fuzztime smoke run mutates from, and pinning it
// keeps that job's coverage (and runtime) stable across Go versions.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

func write(dir, name string, data []byte) {
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		panic(err)
	}
}

func triples(ts ...int64) []byte {
	buf := make([]byte, 0, len(ts)*8)
	for _, v := range ts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

func main() {
	root := "internal/dist/testdata/fuzz"

	dec := filepath.Join(root, "FuzzLeaseDecode")
	if err := os.MkdirAll(dec, 0o755); err != nil {
		panic(err)
	}
	decSeeds := map[string]string{
		"valid-os":             `{"v":1,"worker":"w0","job":1,"lease":1,"lo":1,"hi":16,"payload":{"counts":[{"b":{"u1":0,"v1":1,"u2":2,"v2":3},"count":3,"weight":1.5}]},"counters":{"trials":16,"trial_hits":3,"edges_scanned":64,"edges_pruned":0,"cand_scanned":0,"cand_pruned":0}}`,
		"valid-optimized":      `{"v":1,"job":2,"lease":9,"lo":17,"hi":32,"payload":{"cand_counts":[0,16,7]}}`,
		"valid-kl":             `{"v":1,"job":3,"lease":2,"lo":1,"hi":4,"payload":{"cand_probs":[0,0.5,1,0.25],"cand_trials":[4,4,4,4]}}`,
		"version-skew":         `{"v":2,"lo":1,"hi":16}`,
		"lo-zero":              `{"v":1,"lo":0,"hi":16}`,
		"inverted-range":       `{"v":1,"lo":17,"hi":16}`,
		"kl-width-skew":        `{"v":1,"lo":1,"hi":2,"payload":{"cand_probs":[0.5],"cand_trials":[1]}}`,
		"mixed-kinds":          `{"v":1,"lo":1,"hi":16,"payload":{"counts":[{"count":1}],"cand_counts":[1]}}`,
		"negative-counter":     `{"v":1,"lo":1,"hi":16,"counters":{"trials":-1}}`,
		"negative-count":       `{"v":1,"lo":1,"hi":16,"payload":{"counts":[{"count":-2}]}}`,
		"duplicate-butterfly":  `{"v":1,"lo":1,"hi":16,"payload":{"counts":[{"b":{"u1":0,"v1":0,"u2":1,"v2":1},"count":16,"weight":4},{"b":{"u1":0,"v1":0,"u2":1,"v2":1},"count":16,"weight":4}]}}`,
		"degenerate-butterfly": `{"v":1,"lo":1,"hi":16,"payload":{"counts":[{"b":{"u1":1,"v1":2,"u2":1,"v2":0},"count":3,"weight":4}]}}`,
		"truncated-json":       `{"v":1,"lo":1,"hi":16,"payload":{"cand_probs":`,
		"not-json":             `not json at all`,
		"huge-version":         `{"v":1e309}`,
	}
	for name, body := range decSeeds {
		write(dec, name, []byte(body))
	}

	mrg := filepath.Join(root, "FuzzCheckpointMerge")
	if err := os.MkdirAll(mrg, 0o755); err != nil {
		panic(err)
	}
	mrgSeeds := map[string][]byte{
		"in-order":        triples(1, 8, 1, 9, 16, 1, 17, 24, 1, 25, 32, 1, 33, 40, 1),
		"reversed":        triples(33, 40, 1, 25, 32, 1, 17, 24, 1, 9, 16, 1, 1, 8, 1),
		"duplicated-head": triples(1, 8, 1, 1, 8, 1, 1, 8, 1),
		"version-skew":    triples(1, 8, 2, 1, 8, 1),
		"misaligned":      triples(2, 9, 1, 0, 7, 1, 1, 40, 1, 9, 8, 1),
		"overlapping":     triples(1, 8, 1, 5, 12, 1, 9, 16, 1),
		"empty":           triples(),
	}
	for name, body := range mrgSeeds {
		write(mrg, name, body)
	}
	fmt.Printf("wrote %d + %d corpus files under %s\n", len(decSeeds), len(mrgSeeds), root)
}
