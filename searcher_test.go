package mpmb

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
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

// TestSearcherCacheBounded: a Searcher that sees a stream of fresh seeds
// and community label sets keeps at most maxCachedSets completed entries
// in each cache. Two keys that come back between the fresh ones, like a
// daemon's two concurrent jobs across checkpoint slices, keep hitting
// their own sets, and an in-flight preparing phase is never dropped.
func TestSearcherCacheBounded(t *testing.T) {
	s := NewSearcher(figure1(t))
	preps := map[uint64]int{}
	get := func(seed uint64) {
		t.Helper()
		_, err := s.candidates(candKey{prepTrials: 1, seed: seed}, func() (*core.Candidates, error) {
			preps[seed]++
			return &core.Candidates{PrepDone: 1}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cached := func() int {
		n := 0
		s.cands.DeleteFunc(func(candKey, *core.Candidates) bool { n++; return false })
		return n
	}
	inFlight := candKey{prepTrials: 1, seed: 0}
	started, release := make(chan struct{}), make(chan struct{})
	flight := make(chan error, 1)
	go func() {
		_, err := s.candidates(inFlight, func() (*core.Candidates, error) {
			close(started)
			<-release
			return &core.Candidates{PrepDone: 1}, nil
		})
		flight <- err
	}()
	<-started
	const jobA, jobB = 1, 2
	for i := uint64(0); i < 100; i++ {
		get(jobA)
		get(jobB)
		get(1000 + i)
	}
	n := cached()
	close(release)
	if err := <-flight; err != nil {
		t.Fatal(err)
	}
	if n > maxCachedSets {
		t.Fatalf("%d candidate sets cached beside the in-flight one, want at most %d", n, maxCachedSets)
	}
	if n := cached(); n > maxCachedSets {
		t.Fatalf("%d candidate sets cached, want at most %d", n, maxCachedSets)
	}
	if get(inFlight.seed); preps[inFlight.seed] != 0 {
		t.Fatal("an in-flight preparing phase was dropped")
	}
	if preps[jobA] != 1 || preps[jobB] != 1 {
		t.Fatalf("recurring keys prepared %d and %d times, want once each", preps[jobA], preps[jobB])
	}
	for i := 0; i < 3*maxCachedSets; i++ {
		if _, err := s.communityEntry(&Communities{L: []int{i, i}, R: []int{i, i, i}}); err != nil {
			t.Fatal(err)
		}
	}
	n = 0
	s.comms.DeleteFunc(func(string, communitySplit) bool { n++; return false })
	if n > maxCachedSets {
		t.Fatalf("%d community splits cached, want at most %d", n, maxCachedSets)
	}
}

// TestSearcherInterruptedPrepNotShared: a preparing phase cut short by
// its caller's interrupt goes to that caller only. A caller that asked
// for the same set meanwhile reruns the phase with its own interrupt, and
// only that complete set is kept.
func TestSearcherInterruptedPrepNotShared(t *testing.T) {
	s := NewSearcher(figure1(t))
	key := candKey{prepTrials: 4, seed: 1}
	asking := make(chan struct{})
	rerun := make(chan *core.Candidates, 1)
	partial, err := s.candidates(key, func() (*core.Candidates, error) {
		go func() {
			close(asking)
			c, err := s.candidates(key, func() (*core.Candidates, error) {
				return &core.Candidates{PrepDone: 4}, nil
			})
			if err != nil {
				t.Error(err)
			}
			rerun <- c
		}()
		<-asking
		return &core.Candidates{PrepDone: 2}, nil // interrupted after 2 of 4 trials
	})
	if err != nil || partial.PrepDone != 2 {
		t.Fatalf("interrupted caller got %+v, %v, want its own partial set", partial, err)
	}
	full := <-rerun
	if full == nil || full.PrepDone != 4 {
		t.Fatalf("waiting caller got %+v, want the complete set of its own run", full)
	}
	c, err := s.candidates(key, func() (*core.Candidates, error) {
		t.Error("a complete preparing phase was not kept")
		return nil, nil
	})
	if err != nil || c != full {
		t.Fatalf("later caller got %+v, %v, want the kept complete set", c, err)
	}
}

// TestSearcherPrepPanicFreesKey: a preparing phase that panics leaves
// its key free, so the next query with the same (PrepTrials, Seed) runs
// its own phase instead of waiting forever on the poisoned one.
func TestSearcherPrepPanicFreesKey(t *testing.T) {
	s := NewSearcher(figure1(t))
	key := candKey{prepTrials: 1, seed: 9}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the preparing phase's panic did not reach its caller")
			}
		}()
		s.candidates(key, func() (*core.Candidates, error) { panic("poisoned preparing phase") })
	}()
	got := make(chan *core.Candidates, 1)
	go func() {
		c, err := s.candidates(key, func() (*core.Candidates, error) { return &core.Candidates{PrepDone: 1}, nil })
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	select {
	case c := <-got:
		if c == nil || c.PrepDone != 1 {
			t.Fatalf("query after the panic got %+v, want its own complete set", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a query after a panicked preparing phase is still waiting on it")
	}
}
