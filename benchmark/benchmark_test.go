package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the child session process, the
// way the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		rank int // 1-based rank in the ascending sample
	}{
		{100, 90},    // p90
		{4000, 3990}, // p99.75
		{11, 1},
		{5, 5}, // too few samples: the maximum
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so tail must sort
		}
		if v := tail(xs); v != float64(tc.rank) {
			t.Errorf("n=%d: tail = %v, want the %d-th smallest", tc.n, v, tc.rank)
		}
		// Exactly ten samples lie above the tail once n > 10.
		if above := tc.n - tc.rank; tc.n > 10 && above != 10 {
			t.Errorf("n=%d: %d samples above the tail", tc.n, above)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Query: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Query: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Query: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Query: 1, Name: "a.inner", Start: 15, End: 20},
		{ID: 5, Parent: 1, Query: 1, Name: "late", Start: 90, End: 130}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 40}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if got := coverage(spans, "query"); got != 0.6 {
		t.Fatalf("coverage = %v, want 0.6", got)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	rec := newRecorder()
	q := rec.query()
	top := rec.start(0, q, "query")
	child := rec.start(top, q, "core.os")
	time.Sleep(time.Millisecond)
	rec.end(child)
	rec.end(top)
	s := rec.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Query != q || s[1].dur() <= 0 || s[0].dur() < s[1].dur() {
		t.Fatalf("spans = %+v", s)
	}
	var nilRec *recorder
	nilRec.end(nilRec.start(0, nilRec.query(), "x")) // a nil recorder records nothing
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkJSONMatchesTables checks BENCHMARK.json against the
// workload and metric tables, and every emitted name against the legal
// alphabet.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %q %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if !legalName.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: illegal name or why", w.Name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json  %+v\n table %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer:\n json  %+v\n table %+v", b.PerLayer, perLayer)
	}
	largest := 0.0
	for _, m := range endToEnd {
		largest = max(largest, m.Bound)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must be listed with the largest bound")
	}
	legalUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !legalName.MatchString(m.Name) || len(m.Name) > 64 || !legalUnit.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("illegal metric %+v", m)
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	w, _ := workloadByName("anchored-jester")
	gen := func(seed uint64) (inputs, uint32) {
		dir := t.TempDir()
		path, sum, err := makeInputs(w, seed, true, dir)
		if err != nil {
			t.Fatal(err)
		}
		in, err := readInputs(path)
		if err != nil {
			t.Fatal(err)
		}
		in.Graph = ""
		return *in, sum
	}
	a, sumA := gen(1)
	b, sumB := gen(1)
	c, sumC := gen(2)
	if sumA != sumB || !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.Queries, c.Queries) || reflect.DeepEqual(a.Probe, c.Probe) {
		t.Fatal("a different seed gave the same query stream")
	}
	// The graph is pinned (see graphSeed); the seed moves only the queries.
	if sumA != sumC {
		t.Fatal("the graph changed with the seed")
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny graphs and
// checks that each prints a correct JSON line carrying its metrics.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-smoke", "-seconds", "0.2", "-trace", trace, "-work", work}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, out.String(), errOut.String())
		}
		tab := endToEnd
		if trace == "1" {
			tab = perLayer
		}
		lines := 0
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "{") {
				continue
			}
			lines++
			var r struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted < 1 || len(r.Metrics) != len(tab) {
				t.Errorf("trace %s: %s", trace, line)
			}
			for _, m := range tab {
				if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("trace %s: metric %s missing or mis-united in %s", trace, m.Name, line)
				}
			}
		}
		if lines != len(workloads) {
			t.Fatalf("trace %s: %d JSON lines for %d workloads\n%s", trace, lines, len(workloads), out.String())
		}
	}
}
