package bigraph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestIORoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := 1+r.Intn(10), 1+r.Intn(10)
		b := NewBuilder(numL, numR)
		for i := 0; i < r.Intn(30); i++ {
			_ = b.AddEdge(VertexID(r.Intn(numL)), VertexID(r.Intn(numR)), r.Float64()*10, r.Float64())
		}
		g := b.Build()
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			return false
		}
		g2, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if g2.NumL() != g.NumL() || g2.NumR() != g.NumR() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := buildFigure1(t)
	path := filepath.Join(t.TempDir(), "fig1.graph")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("reloaded graph has %d edges, want %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.graph")); err == nil {
		t.Fatal("Load succeeded on a missing file")
	}
}

// TestReadRejectsMalformedInput pins each rejection's exact message, as
// the parser gave it before it split lines by hand and found repeated
// pairs on the built graph. The "duplicate edge" and "edge count too
// big" cases stop at the header's capacity check; the cases after them
// reach the duplicate rule and the edge count check.
func TestReadRejectsMalformedInput(t *testing.T) {
	cases := map[string]struct{ in, want string }{
		"empty":              {"", "bigraph: missing header line"},
		"comments only":      {"# hello\n\n", "bigraph: missing header line"},
		"bad magic":          {"wrong 1 1 0\n", `bigraph: line 1: expected header "mpmb-bigraph" <numL> <numR> <numEdges>`},
		"missing header":     {"0 0 1 0.5\n", `bigraph: line 1: expected header "mpmb-bigraph" <numL> <numR> <numEdges>`},
		"negative counts":    {"mpmb-bigraph -1 2 0\n", `bigraph: line 1: bad numL "-1" (limit 16777216)`},
		"bad numR":           {"mpmb-bigraph 1 x 0\n", `bigraph: line 1: bad numR "x" (limit 16777216)`},
		"bad edge count":     {"mpmb-bigraph 1 1 zz\n", `bigraph: line 1: bad edge count "zz" (limit 8589934592)`},
		"short edge line":    {"mpmb-bigraph 1 1 1\n0 0 1\n", "bigraph: line 2: expected '<u> <v> <w> <p>', got 3 fields"},
		"bad left vertex":    {"mpmb-bigraph 1 1 1\nx 0 1 0.5\n", `bigraph: line 2: bad left vertex "x": strconv.ParseUint: parsing "x": invalid syntax`},
		"bad right vertex":   {"mpmb-bigraph 1 1 1\n0 x 1 0.5\n", `bigraph: line 2: bad right vertex "x": strconv.ParseUint: parsing "x": invalid syntax`},
		"bad weight":         {"mpmb-bigraph 1 1 1\n0 0 x 0.5\n", `bigraph: line 2: bad weight "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		"bad probability":    {"mpmb-bigraph 1 1 1\n0 0 1 x\n", `bigraph: line 2: bad probability "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		"probability > 1":    {"mpmb-bigraph 1 1 1\n0 0 1 1.5\n", "bigraph: line 2: bigraph: edge (0,0) has probability 1.5 outside [0,1]"},
		"vertex overflow":    {"mpmb-bigraph 1 1 1\n5 0 1 0.5\n", "bigraph: line 2: bigraph: left vertex 5 out of range [0,1)"},
		"edge count too low": {"mpmb-bigraph 1 1 0\n0 0 1 0.5\n", "bigraph: header declares 0 edges but file contains 1"},
		"edge count too big": {"mpmb-bigraph 1 1 3\n0 0 1 0.5\n", "bigraph: line 1: header declares 3 edges but a 1 x 1 graph holds at most 1"},
		"duplicate edge":     {"mpmb-bigraph 1 1 2\n0 0 1 0.5\n0 0 2 0.6\n", "bigraph: line 1: header declares 2 edges but a 1 x 1 graph holds at most 1"},
		"repeated pair":      {"mpmb-bigraph 2 2 2\n0 0 1 0.5\n0 0 2 0.6\n", "bigraph: line 3: bigraph: duplicate edge (0,0)"},
		"repeat, then fault": {"mpmb-bigraph 2 2 3\n0 0 1 0.5\n# note\n\n0 0 2 0.6\n0 x 1 0.5\n", "bigraph: line 5: bigraph: duplicate edge (0,0)"},
		"edges missing":      {"mpmb-bigraph 2 2 3\n0 0 1 0.5\n", "bigraph: header declares 3 edges but file contains 1"},
	}
	for name, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: Read accepted %q", name, c.in)
		} else if err.Error() != c.want {
			t.Errorf("%s: Read(%q) = %q, want %q", name, c.in, err, c.want)
		}
	}
}

// TestReadRejectsOversizedHeaders: the text parser enforces the same
// declared-edge-count discipline as ReadBinary — a header claiming more
// edges than the global limit (or than the graph can bipartitely hold)
// is rejected up front, before any header-sized allocation or edge-line
// parsing.
func TestReadRejectsOversizedHeaders(t *testing.T) {
	cases := map[string]string{
		"past global limit":      "mpmb-bigraph 16777216 16777216 8589934593\n",
		"int overflow":           "mpmb-bigraph 2 2 99999999999999999999\n",
		"past bipartite cap":     "mpmb-bigraph 2 2 5\n",
		"cap with pending edges": "mpmb-bigraph 3 3 10\n0 0 1 0.5\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
	// At the exact capacity the header is honest and must still parse.
	ok := "mpmb-bigraph 2 2 4\n0 0 1 0.5\n0 1 1 0.5\n1 0 1 0.5\n1 1 1 0.5\n"
	g, err := Read(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("full bipartite graph rejected: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("parsed %d edges, want 4", g.NumEdges())
	}
}

func TestReadAcceptsCommentsAndBlankLines(t *testing.T) {
	in := "# a comment\n\nmpmb-bigraph 2 2 1\n# another\n0 1 2.5 0.25\n\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Edge(0).W != 2.5 || g.Edge(0).P != 0.25 {
		t.Fatalf("parsed graph wrong: %+v", g.Edge(0))
	}
}

func TestSaveFailsOnBadPath(t *testing.T) {
	g := buildFigure1(t)
	if err := Save(filepath.Join(t.TempDir(), "no", "such", "dir", "x.graph"), g); err == nil {
		t.Fatal("Save succeeded on an invalid path")
	}
	if _, err := os.Stat(filepath.Join(t.TempDir(), "x.graph")); err == nil {
		t.Fatal("unexpected file created")
	}
}

// TestReadBlocksVsReference holds the block parser at Read's block size
// to readRef on inputs of about 1.5 MB, whose blocks past the first
// seqBlocks (1 MiB) parse on 1 to 3 workers: a clean graph; the same with CR LF
// line ends; a repeated pair in an early block before a fault in a late
// one; a late fault alone; a late repeat; and a late overlong line. Every
// parse must agree with the reference, and every goroutine a parse
// starts must have exited once it returns.
func TestReadBlocksVsReference(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, benchGraph(2000, 2000, 50000)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	edit := func(edits map[int]string) string {
		out := slices.Clone(lines)
		for i, line := range edits {
			out[i] = line
		}
		return strings.Join(out, "")
	}
	cases := map[string]string{
		"clean":              buf.String(),
		"crlf":               strings.ReplaceAll(buf.String(), "\n", "\r\n"),
		"repeat then fault":  edit(map[int]string{900: lines[20], 45000: "1 x 1 0.5\n"}),
		"late fault":         edit(map[int]string{45000: "1 2 1 1.5\n"}),
		"late repeat":        edit(map[int]string{47000: lines[40000]}),
		"late overlong line": edit(map[int]string{45000: "#" + strings.Repeat("x", maxLine) + "\n"}),
	}
	before := runtime.NumGoroutine()
	for name, in := range cases {
		want, wantErr := readRef(strings.NewReader(in))
		if (wantErr == nil) != (name == "clean" || name == "crlf") {
			t.Fatalf("%s: reference error %v", name, wantErr)
		}
		for workers := 1; workers <= 3; workers++ {
			got, err := readText(strings.NewReader(in), textBlockSize, workers)
			if diff := parseDiff(got, err, want, wantErr); diff != "" {
				t.Fatalf("%s on %d workers: %s", name, workers, diff)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the parses returned, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
