package mpmb

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestSearcherMatchesOneShot: Searcher results must be bit-identical to
// the package-level functions with identical options.
func TestSearcherMatchesOneShot(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	if s.Graph() != g {
		t.Fatal("Graph() does not return the wrapped graph")
	}
	for _, m := range []Method{MethodOLS, MethodOLSKL, MethodOS, MethodExact} {
		opt := Options{Method: m, Trials: 5000, PrepTrials: 100, Seed: 7, Mu: 0.05}
		want, err := Search(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got, err := s.Search(opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(got.Estimates) != len(want.Estimates) {
			t.Fatalf("%s: %d estimates vs %d", m, len(got.Estimates), len(want.Estimates))
		}
		for i := range got.Estimates {
			if got.Estimates[i] != want.Estimates[i] {
				t.Fatalf("%s: estimate %d differs: %+v vs %+v", m, i, got.Estimates[i], want.Estimates[i])
			}
		}
	}
}

// TestSearcherCachesCandidates: two OLS queries with the same preparing
// parameters share a candidate set (observable via CandidateCount and,
// indirectly, identical results across estimator switches).
func TestSearcherCachesCandidates(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	n1, err := s.CandidateCount(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("no candidates found")
	}
	n2, err := s.CandidateCount(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("cache instability: %d then %d candidates", n1, n2)
	}
	// Different key → independent entry (may differ in content).
	if _, err := s.CandidateCount(50, 8); err != nil {
		t.Fatal(err)
	}
}

// TestSearcherConcurrent: concurrent queries race-safely share the cache.
func TestSearcherConcurrent(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := MethodOLS
			if i%2 == 1 {
				m = MethodOLSKL
			}
			_, err := s.Search(Options{Method: m, Trials: 500, PrepTrials: 50, Seed: 3, Mu: 0.05})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSearcherSingleFlightPrep: a burst of concurrent identical queries
// runs the preparing phase exactly once. The observer's PrepTrials
// counter is the witness — it counts prep work actually executed, so N
// concurrent searches sharing one flight must report one prep's worth.
func TestSearcherSingleFlightPrep(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	const prep = 200
	obs := NewObserver(ObserverConfig{})
	// Attaching one observer to concurrent runs is not allowed, so give
	// each goroutine its own and sum at the end.
	const n = 8
	observers := make([]*Observer, n)
	for i := range observers {
		observers[i] = NewObserver(ObserverConfig{})
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Search(Options{Method: MethodOLS, Trials: 500, PrepTrials: prep, Seed: 11, Mu: 0.05, Observer: observers[i]})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total int64
	for _, o := range observers {
		total += o.Metrics().PrepTrials
	}
	if total != prep {
		t.Fatalf("%d concurrent identical searches executed %d prep trials in total, want exactly %d (single flight)", n, total, prep)
	}
	// And the flight's product is cached for later callers.
	res, err := s.Search(Options{Method: MethodOLS, Trials: 500, PrepTrials: prep, Seed: 11, Mu: 0.05, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || obs.Metrics().PrepTrials != 0 {
		t.Fatalf("cache hit after the flight still ran %d prep trials", obs.Metrics().PrepTrials)
	}
}

// TestSearcherValidation propagates option errors.
func TestSearcherValidation(t *testing.T) {
	s := NewSearcher(figure1(t))
	if _, err := s.Search(Options{Method: MethodOLS, Trials: 0}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// TestSearcherSearchContextPrepCheckpoint cancels a Searcher query inside
// its preparing phase: the partial Result carries a prepare-phase
// checkpoint, and resuming it through the same Searcher finishes
// bit-identically to an uninterrupted run. The interrupted listing is not
// cached, so the resume lists (and caches) the complete candidate set.
func TestSearcherSearchContextPrepCheckpoint(t *testing.T) {
	g := observerGraph(t)
	opt := Options{Method: MethodOLS, Trials: 2000, PrepTrials: 20000, Seed: 17}
	want, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSearcher(g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at the first preparing-phase flush: the preparing phase is
	// far longer than the observer's delivery latency.
	obs := NewObserver(ObserverConfig{OnEvent: func(e Event) {
		if e.Kind == EventTrialDone && e.Phase == "prep" {
			cancel()
		}
	}})
	defer obs.Close()
	cut := opt
	cut.Observer = obs
	part, err := s.SearchContext(ctx, cut)
	if err != nil {
		t.Fatal(err)
	}
	ck := part.Checkpoint
	if !part.Partial || ck == nil || !ck.Prepare {
		t.Fatalf("cancelled listing: Partial=%v checkpoint=%+v, want a prepare-phase checkpoint", part.Partial, ck)
	}
	if ck.Done <= 0 || ck.Done >= opt.PrepTrials {
		t.Skipf("cancellation landed at prep trial %d, not strictly inside the preparing phase", ck.Done)
	}

	resume := opt
	resume.Resume = ck
	got, err := s.SearchContext(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed Result diverges from the uninterrupted run\n got: %+v\nwant: %+v", got, want)
	}
	if n, err := s.CandidateCount(opt.PrepTrials, opt.Seed); err != nil || n != len(want.Estimates) {
		t.Fatalf("cached candidate set has %d candidates (err %v), want %d", n, err, len(want.Estimates))
	}
}
