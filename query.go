package mpmb

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// EdgeAnchor names a backbone edge (U ∈ L, V ∈ R) for an edge-anchored
// query.
type EdgeAnchor struct {
	U VertexID
	V VertexID
}

// Communities partitions the graph's vertices for a per-community query.
// Labels are arbitrary nonnegative integers; -1 excludes a vertex from
// every community. A butterfly belongs to community c exactly when all
// four of its vertices carry label c, so each community is searched on
// its induced subgraph and cross-community butterflies are out of scope
// by definition.
type Communities struct {
	// L / R give one label per left / right vertex (lengths must match
	// the graph's partition sizes).
	L []int
	R []int
	// TopK is how many of each community's estimates the merged top-level
	// Result.Estimates keeps; 0 means 1 (the per-community MPMB). The
	// full per-community results are always available in
	// Result.Communities.
	TopK int
}

// Query selects an MPMB query variant beyond the default global search.
// The zero value (and a nil Options.Query) is the global query. At most
// one of AnchorL, AnchorR and AnchorEdge may be set, and anchors cannot
// be combined with Community; AdaptivePrep composes with any of them.
//
// Anchored queries (AnchorL/AnchorR/AnchorEdge) restrict the search to
// butterflies containing the anchor, so P(B) is the probability that B
// is (one of) the heaviest among the anchor-containing butterflies of a
// world. Candidate preparation and the trials run the global query's
// trial kernel over a snapshot that holds only the edges of the anchor's
// butterflies. They support MethodExact, MethodOS, MethodOLS and
// MethodOLSKL, reject Resume, Executor and the adaptive supervisor
// options, and an anchor contained in no butterfly yields an empty
// Result.
//
// Community queries run one search per community label over its induced
// subgraph, fanning communities out across Options.Workers (0 means
// GOMAXPROCS) with each community's run kept sequential; per-community
// seeds derive deterministically from (Options.Seed, label). The merged
// Result concatenates each community's top-k estimates and carries the
// full per-community results in Result.Communities.
//
// AdaptivePrep runs a sublinear butterfly-count pre-pass (sampled
// per-edge wedge expectations, after the approximate-counting literature)
// that sizes PrepTrials and picks the degradation-ladder entry point for
// the query — per community for community queries, anchored for anchored
// ones. The sizing decision is recorded in Result.Adaptive.PrepSizing.
// It applies to the OLS methods only (Options.PrepTrials is then
// ignored).
type Query struct {
	// AnchorL anchors the query on a left vertex.
	AnchorL *VertexID
	// AnchorR anchors the query on a right vertex.
	AnchorR *VertexID
	// AnchorEdge anchors the query on a backbone edge.
	AnchorEdge *EdgeAnchor
	// Community partitions the graph for a per-community top-k query.
	Community *Communities
	// AdaptivePrep sizes the OLS preparing phase (and ladder entry) from
	// an approximate butterfly-count pre-pass instead of
	// Options.PrepTrials.
	AdaptivePrep bool
}

// anchorCount is how many anchor fields are set.
func (q *Query) anchorCount() int {
	n := 0
	if q.AnchorL != nil {
		n++
	}
	if q.AnchorR != nil {
		n++
	}
	if q.AnchorEdge != nil {
		n++
	}
	return n
}

// anchored reports whether any anchor field is set.
func (q *Query) anchored() bool { return q.anchorCount() > 0 }

// active reports whether the query differs from the global default.
func (q *Query) active() bool {
	return q != nil && (q.anchored() || q.Community != nil || q.AdaptivePrep)
}

// anchorField names the set anchor field for error attribution.
func (q *Query) anchorField() (string, any) {
	switch {
	case q.AnchorL != nil:
		return "Query.AnchorL", *q.AnchorL
	case q.AnchorR != nil:
		return "Query.AnchorR", *q.AnchorR
	default:
		return "Query.AnchorEdge", fmt.Sprintf("(%d,%d)", q.AnchorEdge.U, q.AnchorEdge.V)
	}
}

// coreAnchor resolves the anchor against the graph, range-checking into
// typed *OptionErrors.
func (q *Query) coreAnchor(g *Graph) (core.Anchor, error) {
	switch {
	case q.AnchorL != nil:
		if int(*q.AnchorL) >= g.NumL() {
			return core.Anchor{}, &OptionError{Field: "Query.AnchorL", Value: *q.AnchorL, Reason: fmt.Sprintf("left vertex out of range [0,%d)", g.NumL())}
		}
		return core.Anchor{Kind: core.AnchorLeft, U: *q.AnchorL}, nil
	case q.AnchorR != nil:
		if int(*q.AnchorR) >= g.NumR() {
			return core.Anchor{}, &OptionError{Field: "Query.AnchorR", Value: *q.AnchorR, Reason: fmt.Sprintf("right vertex out of range [0,%d)", g.NumR())}
		}
		return core.Anchor{Kind: core.AnchorRight, V: *q.AnchorR}, nil
	default:
		e := *q.AnchorEdge
		val := fmt.Sprintf("(%d,%d)", e.U, e.V)
		if int(e.U) >= g.NumL() {
			return core.Anchor{}, &OptionError{Field: "Query.AnchorEdge", Value: val, Reason: fmt.Sprintf("left endpoint out of range [0,%d)", g.NumL())}
		}
		if int(e.V) >= g.NumR() {
			return core.Anchor{}, &OptionError{Field: "Query.AnchorEdge", Value: val, Reason: fmt.Sprintf("right endpoint out of range [0,%d)", g.NumR())}
		}
		a := core.Anchor{Kind: core.AnchorEdge, U: e.U, V: e.V}
		if err := a.Validate(g); err != nil {
			return core.Anchor{}, &OptionError{Field: "Query.AnchorEdge", Value: val, Reason: "not a backbone edge"}
		}
		return a, nil
	}
}

// validate checks the query's structural rules against the method (graph
// range checks happen at search time, with the same Field attribution).
func (q *Query) validate(o Options, m Method) error {
	anchors := q.anchorCount()
	if anchors > 1 {
		return &OptionError{Field: "Query", Value: fmt.Sprintf("%d anchors", anchors), Reason: "at most one of AnchorL, AnchorR and AnchorEdge may be set"}
	}
	if anchors > 0 && q.Community != nil {
		return &OptionError{Field: "Query.Community", Value: "set", Reason: "a community partition cannot be combined with an anchor"}
	}
	if c := q.Community; c != nil {
		if len(c.L) == 0 && len(c.R) == 0 {
			return &OptionError{Field: "Query.Community", Value: "empty", Reason: "community labels are empty; label every vertex (-1 excludes)"}
		}
		if c.TopK < 0 {
			return &OptionError{Field: "Query.Community", Value: c.TopK, Reason: "TopK cannot be negative"}
		}
	}
	if anchors > 0 && m == MethodMCVP {
		f, v := q.anchorField()
		return &OptionError{Field: f, Value: v, Reason: "anchored queries support exact, os, ols and ols-kl; mc-vp enumerates whole worlds and cannot restrict to the anchor"}
	}
	if q.active() {
		if o.Resume != nil {
			return &OptionError{Field: "Resume", Value: o.Resume, Reason: "query variants cannot resume from a checkpoint"}
		}
		if o.Executor != nil {
			return &OptionError{Field: "Executor", Value: o.Executor, Reason: "query variants do not support an explicit Executor yet; use Options.Workers"}
		}
	}
	if (anchors > 0 || q.Community != nil) && o.adaptive() {
		f, v := o.adaptiveField()
		return &OptionError{Field: f, Value: v, Reason: "adaptive supervision does not compose with anchored or per-community queries yet; use Query.AdaptivePrep for adaptive preparation sizing"}
	}
	if q.AdaptivePrep {
		switch m {
		case MethodOLS, MethodOLSKL, Method(""):
		default:
			return &OptionError{Field: "Query.AdaptivePrep", Value: true, Reason: fmt.Sprintf("adaptive preparation sizing applies to the OLS methods (method %q has no preparing phase)", m)}
		}
	}
	return nil
}

// attachSizing records the prep-sizing decision on the result, creating
// the adaptive report for runs that were not otherwise supervised.
func attachSizing(res *Result, s core.PrepSizing) {
	if res.Adaptive == nil {
		reason := core.StopCompleted
		if res.Partial {
			reason = core.StopCancelled
		}
		res.Adaptive = &core.AdaptiveReport{
			StopReason:      reason,
			FinalMethod:     res.Method,
			FinalPrepTrials: res.PrepTrials,
		}
	}
	res.Adaptive.PrepSizing = &s
}

// applySizing runs the pre-pass and rewrites the options in place:
// PrepTrials takes the sized budget and, for unsupervised runs whose
// expected butterfly population exceeds the listing ceiling, the method
// enters the degradation ladder at OS. Supervised runs keep their OLS
// entry — the supervisor owns ladder transitions.
func applySizing(g *Graph, opt *Options, method Method, anchor *core.Anchor) (core.PrepSizing, Method) {
	s := core.SizePrep(g, anchor, opt.Seed)
	opt.PrepTrials = s.PrepTrials
	if s.EntryMethod == "os" && !opt.adaptive() {
		method = MethodOS
	}
	return s, method
}

// communitySubgraphs splits the graph, mapping spec errors to the
// Query.Community field.
func communitySubgraphs(g *Graph, c *Communities) ([]core.CommunityGraph, error) {
	subs, err := core.CommunitySubgraphs(g, core.CommunitySpec{L: c.L, R: c.R})
	if err != nil {
		return nil, &OptionError{
			Field:  "Query.Community",
			Value:  fmt.Sprintf("%d/%d labels", len(c.L), len(c.R)),
			Reason: err.Error(),
		}
	}
	return subs, nil
}

// runCommunities executes one run per community with bounded
// concurrency. run receives the community's index and derived inner
// options, and returns the subgraph-relative result (remapping to parent
// ids happens here). The first error in community order wins.
func runCommunities(subs []core.CommunityGraph, opt Options, run func(i int, innerOpt Options) (*Result, error)) ([]core.CommunityResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(subs)), 1)
	results := make([]*Result, len(subs))
	errs := make([]error, len(subs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cg := subs[i]
			res, err := run(i, communityInnerOptions(opt, cg.ID))
			if err != nil {
				errs[i] = fmt.Errorf("community %d: %w", cg.ID, err)
				return
			}
			results[i] = cg.RemapResult(res)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	parts := make([]core.CommunityResult, len(subs))
	for i, cg := range subs {
		parts[i] = core.CommunityResult{Community: cg.ID, Result: results[i]}
	}
	return parts, nil
}

// communityInnerOptions derives one community's run options: a
// per-community seed (deterministic in the top-level seed and the
// label), a sequential inner run (the fan-out happens at the community
// level), and no observer (the top-level result carries the merged
// metrics snapshot).
func communityInnerOptions(opt Options, id int) Options {
	inner := opt
	inner.Workers = 0
	inner.Observer = nil
	inner.Query = nil
	if opt.Query != nil && opt.Query.AdaptivePrep {
		inner.Query = &Query{AdaptivePrep: true}
	}
	inner.Seed = opt.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
	return inner
}

// assembleCommunities merges the per-community parts into the top-level
// Result.
func assembleCommunities(opt Options, method Method, parts []core.CommunityResult) (*Result, error) {
	prep := 0
	switch method {
	case MethodOLS, MethodOLSKL:
		prep = opt.PrepTrials
	}
	res := core.AssembleCommunityResult(string(method), opt.Trials, prep, opt.Query.Community.TopK, parts)
	finishMetrics(opt.Observer, res)
	return res, nil
}
