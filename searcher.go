package mpmb

import (
	"context"
	"encoding/binary"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/cache"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Searcher answers repeated MPMB queries against one graph, reusing the
// expensive shared state between calls — most importantly the OLS
// preparing phase, which dominates total cost on large networks (Fig. 8):
// candidate sets are cached per (PrepTrials, Seed), so sweeping sampling
// budgets, switching between the OLS and OLS-KL estimators, or asking for
// different top-k views pays for candidate listing once.
//
// A Searcher is safe for concurrent use. Concurrent searches needing the
// same (PrepTrials, Seed) candidate set are single-flighted: one caller
// runs the preparing phase while the others wait for its result, so a
// burst of identical queries — the multi-tenant daemon's steady state —
// pays for candidate listing exactly once. The caches keep the sets
// used most recently, maxCachedSets at most.
type Searcher struct {
	g     *Graph
	cands *cache.Cache[candKey, *core.Candidates]
	comms *cache.Cache[string, communitySplit]
}

// maxCachedSets caps each cache's completed entries: past it the least
// recently used goes, never an in-flight one. A daemon runs two jobs at
// once by default and each reuses its set every checkpoint slice, so a
// job loses its set only if eight others were used since its last slice.
const maxCachedSets = 8

// candKey identifies one preparing-phase run. The zero anchor is the
// global preparing phase; anchored queries cache their (disjoint)
// anchored candidate sets under the same map.
type candKey struct {
	prepTrials int
	seed       uint64
	anchor     core.Anchor
}

// communitySplit is one cached community split: the induced subgraphs
// plus a child Searcher per community, so repeated community queries
// reuse both the split and each community's preparing phases.
type communitySplit struct {
	subs []core.CommunityGraph
	kids []*Searcher
}

// NewSearcher wraps g for repeated queries.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{
		g:     g,
		cands: cache.New[candKey, *core.Candidates](maxCachedSets, nil),
		comms: cache.New[string, communitySplit](maxCachedSets, nil),
	}
}

// Graph returns the wrapped graph.
func (s *Searcher) Graph() *Graph { return s.g }

// Search answers the query like the package-level Search, reusing the
// cached candidate set for (opt.PrepTrials, opt.Seed) instead of
// re-running the preparing phase. Results are identical to the one-shot
// functions with the same options.
func (s *Searcher) Search(opt Options) (*Result, error) {
	return s.search(opt, nil)
}

// SearchContext is Search with the package-level SearchContext's
// graceful-degradation contract: cancelling ctx returns a partial Result
// (with a resumable Checkpoint for the resumable methods) instead of
// discarding the completed trials — a cancelled preparing phase included.
// Resume either kind of checkpoint by passing it back via opt.Resume.
func (s *Searcher) SearchContext(ctx context.Context, opt Options) (*Result, error) {
	return s.search(opt, ctxHook(ctx))
}

// search is the package's one query router: Search, SearchContext and
// both Searcher methods run it (the package-level functions on a
// throwaway Searcher). It validates the options, resolves the query
// variant, threads the cancellation hook, resume checkpoint and telemetry
// probe into the core runner of the method, and stamps the final Metrics
// snapshot onto the result.
func (s *Searcher) search(opt Options, interrupt func() bool) (*Result, error) {
	method := opt.Method
	if method == "" {
		method = MethodOLS
	}
	if err := opt.validateFor(method); err != nil {
		return nil, err
	}
	g, q := s.g, opt.Query
	if q != nil && q.Community != nil {
		split, err := s.communityEntry(q.Community)
		if err != nil {
			return nil, err
		}
		parts, err := runCommunities(split.subs, opt, func(i int, innerOpt Options) (*Result, error) {
			return split.kids[i].search(innerOpt, interrupt)
		})
		if err != nil {
			return nil, err
		}
		return assembleCommunities(opt, method, parts)
	}
	var anchor core.Anchor
	if q != nil && q.anchored() {
		a, err := q.coreAnchor(g)
		if err != nil {
			return nil, err
		}
		anchor = a
	}
	anchored := anchor.Kind != 0
	var sizing *core.PrepSizing
	if q != nil && q.AdaptivePrep {
		var sizeAnchor *core.Anchor
		if anchored {
			sizeAnchor = &anchor
		}
		sz, m := applySizing(g, &opt, method, sizeAnchor)
		sizing, method = &sz, m
	}
	probe := opt.Observer.probe(method, opt.Workers)
	osOpt := core.OSOptions{
		Trials:    opt.Trials,
		Seed:      opt.Seed,
		Interrupt: interrupt,
		Resume:    opt.Resume,
		Probe:     probe,
		Executor:  opt.Executor,
	}
	var res *Result
	var err error
	switch {
	case method == MethodExact && anchored:
		res, err = core.ExactAnchored(g, anchor, interrupt)
	case method == MethodExact:
		res, err = core.ExactInterruptible(g, interrupt)
	case method == MethodOLS || method == MethodOLSKL:
		res, err = s.searchOLS(opt, method, anchor, interrupt, probe, func(o core.OSOptions) (*core.Candidates, error) {
			if anchored {
				return core.PrepareAnchoredCandidates(g, anchor, opt.PrepTrials, opt.Seed, o.Interrupt)
			}
			return core.PrepareCandidates(g, opt.PrepTrials, opt.Seed, o)
		})
	case opt.adaptive():
		res, err = core.Supervise(g, supervisorOptions(opt, method, interrupt, nil, probe))
	case method == MethodMCVP:
		res, err = core.MCVP(g, core.MCVPOptions{
			Trials:    opt.Trials,
			Seed:      opt.Seed,
			Interrupt: interrupt,
			Resume:    opt.Resume,
			Probe:     probe,
		})
	case anchored:
		res, err = core.AnchoredOSParallel(g, anchor, osOpt, opt.Workers)
	default:
		res, err = core.OSParallel(g, osOpt, opt.Workers)
	}
	if err != nil {
		return nil, err
	}
	if sizing != nil {
		attachSizing(res, *sizing)
	}
	finishMetrics(opt.Observer, res)
	return res, nil
}

// searchOLS runs the OLS methods: prepare, the query's preparing phase,
// through the candidate cache, then the sampling phase (or the
// supervisor) over its candidates. The preparing phase polls the caller's
// interrupt — and, for a supervised run, its Deadline — and resumes a
// prepare-phase checkpoint; an interrupted listing comes back as a
// partial Result.
func (s *Searcher) searchOLS(opt Options, method Method, anchor core.Anchor, interrupt func() bool, probe *telemetry.Probe, prepare func(core.OSOptions) (*core.Candidates, error)) (*Result, error) {
	supervised := opt.adaptive()
	prepOpt := core.OSOptions{Interrupt: interrupt, Probe: probe}
	if !opt.Deadline.IsZero() {
		prepOpt.Interrupt = func() bool {
			return (interrupt != nil && interrupt()) || !time.Now().Before(opt.Deadline)
		}
	}
	if ck := opt.Resume; ck != nil && ck.Prepare {
		prepOpt.Resume = ck
	}
	var cands *core.Candidates
	// A supervised resume re-lists through its own checkpoint.
	if !supervised || opt.Resume == nil {
		key := candKey{prepTrials: opt.PrepTrials, seed: opt.Seed, anchor: anchor}
		var err error
		cands, err = s.candidates(key, func() (*core.Candidates, error) { return prepare(prepOpt) })
		if err != nil {
			return nil, err
		}
	}
	if supervised {
		// The supervisor seeds from the cached (or continues an
		// interrupted) candidate set; an audit escalation re-prepares past
		// it (the widened set is not cached back — it depends on audit
		// state, not on (PrepTrials, Seed)). Anchored queries reject the
		// adaptive options, so this only runs with the global set.
		return core.Supervise(s.g, supervisorOptions(opt, method, interrupt, cands, probe))
	}
	return core.OLSSamplingPhaseParallel(cands, core.OLSOptions{
		PrepTrials:  opt.PrepTrials,
		Trials:      opt.Trials,
		Seed:        opt.Seed,
		UseKarpLuby: method == MethodOLSKL,
		KL:          core.KLOptions{Mu: opt.Mu},
		Interrupt:   interrupt,
		Resume:      opt.Resume,
		Probe:       probe,
		Executor:    opt.Executor,
	}, opt.Workers)
}

// communityEntry returns the cached (or freshly built) community split
// for the label slices, single-flighted like the candidate cache.
func (s *Searcher) communityEntry(c *Communities) (communitySplit, error) {
	return s.comms.Get(communityKey(c), func() (communitySplit, error) {
		subs, err := communitySubgraphs(s.g, c)
		if err != nil {
			return communitySplit{}, err
		}
		kids := make([]*Searcher, len(subs))
		for i, cg := range subs {
			kids[i] = NewSearcher(cg.G)
		}
		return communitySplit{subs: subs, kids: kids}, nil
	}, nil)
}

// communityKey is the community cache's key: both label slices as
// varints, L's length first, so two label sets share a key exactly when
// they are equal.
func communityKey(c *Communities) string {
	b := binary.AppendUvarint(nil, uint64(len(c.L)))
	for _, l := range c.L {
		b = binary.AppendVarint(b, int64(l))
	}
	for _, r := range c.R {
		b = binary.AppendVarint(b, int64(r))
	}
	return string(b)
}

// CandidateCount reports how many candidate butterflies the preparing
// phase for (prepTrials, seed) finds, materializing (and caching) it.
func (s *Searcher) CandidateCount(prepTrials int, seed uint64) (int, error) {
	cands, err := s.candidates(candKey{prepTrials: prepTrials, seed: seed}, func() (*core.Candidates, error) {
		return core.PrepareCandidates(s.g, prepTrials, seed, core.OSOptions{})
	})
	if err != nil {
		return 0, err
	}
	return cands.Len(), nil
}

// candidates returns the candidate set for key, running prepare when no
// completed or in-flight preparing phase for it exists. Only completed
// phases stay cached: a failed or interrupted flight is not kept, and the
// callers that were waiting on an interrupted one rerun it, each with
// its own interrupt, rather than inherit someone else's cancellation.
// The waiters' probes record nothing for a phase they awaited: the
// metrics reflect work done, not work awaited.
func (s *Searcher) candidates(key candKey, prepare func() (*core.Candidates, error)) (*core.Candidates, error) {
	return s.cands.Get(key, prepare, func(c *core.Candidates) bool { return c.PrepDone == key.prepTrials })
}
