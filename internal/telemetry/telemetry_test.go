package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryShardMerge(t *testing.T) {
	r := NewRegistry()
	r.EnsureWorkers(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(w, CounterTrials, 2)
				r.Add(w, CounterEdgesScanned, 3)
				r.RecordTrialNs(w, 2, 256)
			}
		}(w)
	}
	wg.Wait()
	m := r.Snapshot()
	if m.Trials != 4*100*2 {
		t.Errorf("Trials = %d, want %d", m.Trials, 800)
	}
	if m.EdgesScanned != 4*100*3 {
		t.Errorf("EdgesScanned = %d, want %d", m.EdgesScanned, 1200)
	}
	if m.TrialNs.Count != 800 || m.TrialNs.SumNs != 4*100*256 {
		t.Errorf("hist count/sum = %d/%d", m.TrialNs.Count, m.TrialNs.SumNs)
	}
	if m.Workers != 4 {
		t.Errorf("Workers = %d, want 4", m.Workers)
	}
}

func TestRegistryMonotoneAcrossResize(t *testing.T) {
	r := NewRegistry()
	r.Add(0, CounterTrials, 10)
	r.RecordTrialNs(0, 10, 1000)
	r.EnsureWorkers(8) // folds shard 0 into base
	r.Add(7, CounterTrials, 5)
	m := r.Snapshot()
	if m.Trials != 15 {
		t.Errorf("Trials after resize = %d, want 15 (monotone)", m.Trials)
	}
	if m.TrialNs.Count != 10 {
		t.Errorf("hist count after resize = %d, want 10", m.TrialNs.Count)
	}
	// Shrinking never happens: a smaller run reuses the wide array.
	r.EnsureWorkers(2)
	if got := len(*r.shards.Load()); got != 8 {
		t.Errorf("shard count after EnsureWorkers(2) = %d, want 8", got)
	}
}

func TestHistBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{{0, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {1 << 40, histBuckets - 1}}
	for _, c := range cases {
		if got := histBucket(c.ns); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	if HistBucketBound(histBuckets-1) != math.MaxInt64 {
		t.Error("last bucket bound must be +Inf sentinel")
	}
	if HistBucketBound(1) != 127 {
		t.Errorf("bound(1) = %d, want 127", HistBucketBound(1))
	}
}

func TestHubDeliversInOrder(t *testing.T) {
	var mu sync.Mutex
	var got []int
	h := NewHub(64, func(e Event) {
		mu.Lock()
		got = append(got, e.Trial)
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		h.Emit(Event{Kind: EventTrialDone, Trial: i})
	}
	h.Close()
	if len(got) != 10 {
		t.Fatalf("delivered %d events, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d out of order: got trial %d", i, v)
		}
	}
	if h.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", h.Dropped())
	}
}

func TestHubDropsNotBlocks(t *testing.T) {
	block := make(chan struct{})
	h := NewHub(4, func(e Event) { <-block })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			h.Emit(Event{Kind: EventTrialDone, Trial: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stuck observer")
	}
	if h.Dropped() == 0 {
		t.Error("expected drops with a stuck observer and a tiny ring")
	}
	close(block)
	h.Close()
}

func TestHubNilCallbackAndNilHub(t *testing.T) {
	h := NewHub(0, nil)
	h.Emit(Event{Kind: EventTrialDone})
	if h.Dropped() != 0 {
		t.Error("metrics-only hub must not count drops")
	}
	h.Close()
	h.Close() // idempotent

	var nilHub *Hub
	nilHub.Emit(Event{})
	nilHub.Close()
	if nilHub.Dropped() != 0 {
		t.Error("nil hub Dropped != 0")
	}
}

func TestNilProbeIsNoOp(t *testing.T) {
	var p *Probe
	p.FlushEdgeTrials(0, 1, 1, 1, 1, 1)
	p.FlushCandTrials(0, 1, 1, 1, 1, 1)
	p.Add(0, CounterAudits, 1)
	p.SetLeader(0.5, 0.01)
	p.Emit(Event{Kind: EventTrialDone})
	p.LabelWorker(0)
	if q := p.WithPhase(PhasePrep); q != nil {
		t.Error("nil probe WithPhase must stay nil")
	}
}

func TestProbePhaseRouting(t *testing.T) {
	r := NewRegistry()
	p := &Probe{Reg: r, Method: "ols"}
	p.WithPhase(PhasePrep).FlushEdgeTrials(0, 10, 4, 100, 50, 0)
	p.FlushEdgeTrials(0, 20, 8, 200, 100, 0)
	p.FlushCandTrials(0, 30, 9, 60, 40, 0)
	m := r.Snapshot()
	if m.PrepTrials != 10 || m.Trials != 50 {
		t.Errorf("prep/sample split = %d/%d, want 10/50", m.PrepTrials, m.Trials)
	}
	if m.EdgesScanned != 300 || m.EdgesPruned != 150 {
		t.Errorf("edge split = %d/%d, want 300/150", m.EdgesScanned, m.EdgesPruned)
	}
	if m.PrefixFallbacks != 0 {
		t.Errorf("PrefixFallbacks = %d, want 0", m.PrefixFallbacks)
	}
	if m.CandScanned != 60 || m.CandPruned != 40 {
		t.Errorf("cand split = %d/%d, want 60/40", m.CandScanned, m.CandPruned)
	}
	if got := m.CandPruneRate(); got != 0.4 {
		t.Errorf("CandPruneRate = %v, want 0.4", got)
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	e := Event{Kind: EventEstimateUpdated, Method: "ols", Trial: 42, P: 0.25, HalfWidth: 0.01}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"estimate_updated"`) {
		t.Fatalf("kind not marshaled as name: %s", b)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != EventEstimateUpdated || back.Trial != 42 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestWritePrometheusAndHTTP(t *testing.T) {
	r := NewRegistry()
	r.Add(0, CounterTrials, 123)
	r.SetLeader(0.5, 0.01)
	r.RecordTrialNs(0, 64, 6400)

	var sb strings.Builder
	m := r.Snapshot()
	m.EventsDropped = 7
	if err := WritePrometheus(&sb, m); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"mpmb_trials_total 123",
		"mpmb_events_dropped_total 7",
		"mpmb_leader_p 0.5",
		`mpmb_trial_duration_nanoseconds_bucket{le="+Inf"} 64`,
		"mpmb_trial_duration_nanoseconds_count 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q", want)
		}
	}

	srv := httptest.NewServer(HTTPHandler(func() Metrics { return r.Snapshot() }))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
