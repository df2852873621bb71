package mpmb

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

func vptr(v VertexID) *VertexID { return &v }

type stubExecutor struct{}

func (stubExecutor) ExecuteTrials(job *core.ExecJob) (*core.ExecResult, error) {
	return nil, errors.New("stub executor")
}

// pendantPublic builds a graph whose L0 (and R0) touch only the pendant
// edge (0,0): every anchor on them has zero butterfly support, while the
// {L1,L2}×{R1,R2} block holds a real butterfly.
func pendantPublic(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(3, 3)
	b.MustAddEdge(0, 0, 5, 0.9)
	b.MustAddEdge(1, 1, 2, 0.5)
	b.MustAddEdge(1, 2, 3, 0.6)
	b.MustAddEdge(2, 1, 1, 0.7)
	b.MustAddEdge(2, 2, 2, 0.8)
	return b.Build()
}

// twoBlocks builds two disjoint complete 2×2 blocks: community 0 on
// {L0,L1}×{R0,R1}, community 1 on {L2,L3}×{R2,R3}.
func twoBlocks(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(4, 4)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 3, 0.6)
	b.MustAddEdge(1, 0, 1, 0.7)
	b.MustAddEdge(1, 1, 2, 0.8)
	b.MustAddEdge(2, 2, 4, 0.4)
	b.MustAddEdge(2, 3, 1, 0.9)
	b.MustAddEdge(3, 2, 2, 0.5)
	b.MustAddEdge(3, 3, 3, 0.6)
	return b.Build()
}

func blockLabels() *Communities {
	return &Communities{L: []int{0, 0, 1, 1}, R: []int{0, 0, 1, 1}}
}

func TestQueryValidation(t *testing.T) {
	base := func() Options {
		o := DefaultOptions()
		o.Trials = 100
		return o
	}
	cases := []struct {
		name  string
		mut   func(*Options)
		field string
	}{
		{"two anchors", func(o *Options) {
			o.Query = &Query{AnchorL: vptr(0), AnchorR: vptr(0)}
		}, "Query"},
		{"anchor plus community", func(o *Options) {
			o.Query = &Query{AnchorL: vptr(0), Community: blockLabels()}
		}, "Query.Community"},
		{"empty community labels", func(o *Options) {
			o.Query = &Query{Community: &Communities{}}
		}, "Query.Community"},
		{"negative topk", func(o *Options) {
			o.Query = &Query{Community: &Communities{L: []int{0}, R: []int{0}, TopK: -1}}
		}, "Query.Community"},
		{"anchored mc-vp", func(o *Options) {
			o.Method = MethodMCVP
			o.Query = &Query{AnchorL: vptr(0)}
		}, "Query.AnchorL"},
		{"anchored resume", func(o *Options) {
			o.Query = &Query{AnchorR: vptr(0)}
			o.Resume = &Checkpoint{}
		}, "Resume"},
		{"community executor", func(o *Options) {
			o.Query = &Query{Community: blockLabels()}
			o.Executor = stubExecutor{}
		}, "Executor"},
		{"anchored supervisor", func(o *Options) {
			o.Query = &Query{AnchorL: vptr(0)}
			o.AuditEvery = 100
		}, "AuditEvery"},
		{"community epsilon", func(o *Options) {
			o.Query = &Query{Community: blockLabels()}
			o.Epsilon = 0.01
		}, "Epsilon"},
		{"adaptive prep on os", func(o *Options) {
			o.Method = MethodOS
			o.Query = &Query{AdaptivePrep: true}
		}, "Query.AdaptivePrep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.mut(&o)
			err := o.Validate()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() = %v, want *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("Field = %q, want %q (%v)", oe.Field, tc.field, err)
			}
		})
	}
	// The zero Query is the global query and must stay valid.
	o := base()
	o.Query = &Query{}
	if err := o.Validate(); err != nil {
		t.Fatalf("zero Query rejected: %v", err)
	}
}

func TestQueryRangeErrors(t *testing.T) {
	g := figure1(t)
	pend := pendantPublic(t)
	opt := DefaultOptions()
	opt.Trials = 100
	for _, tc := range []struct {
		name  string
		g     *Graph
		q     *Query
		field string
	}{
		{"left out of range", g, &Query{AnchorL: vptr(9)}, "Query.AnchorL"},
		{"right out of range", g, &Query{AnchorR: vptr(9)}, "Query.AnchorR"},
		{"edge endpoint out of range", g, &Query{AnchorEdge: &EdgeAnchor{U: 9, V: 0}}, "Query.AnchorEdge"},
		{"not a backbone edge", pend, &Query{AnchorEdge: &EdgeAnchor{U: 0, V: 1}}, "Query.AnchorEdge"},
		{"label length mismatch", g, &Query{Community: &Communities{L: []int{0}, R: []int{0, 0, 0}}}, "Query.Community"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := opt
			opt.Query = tc.q
			_, err := Search(tc.g, opt)
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Search = %v, want *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("Field = %q, want %q (%v)", oe.Field, tc.field, err)
			}
		})
	}
}

// anchorIn reports whether the query's anchor is contained in b.
func anchorIn(b Butterfly, q *Query) bool {
	switch {
	case q.AnchorL != nil:
		return b.U1 == *q.AnchorL || b.U2 == *q.AnchorL
	case q.AnchorR != nil:
		return b.V1 == *q.AnchorR || b.V2 == *q.AnchorR
	default:
		e := q.AnchorEdge
		return (b.U1 == e.U || b.U2 == e.U) && (b.V1 == e.V || b.V2 == e.V)
	}
}

func TestAnchoredSearchMatchesExact(t *testing.T) {
	g := figure1(t)
	queries := []*Query{
		{AnchorL: vptr(0)},
		{AnchorL: vptr(1)},
		{AnchorR: vptr(0)},
		{AnchorR: vptr(2)},
		{AnchorEdge: &EdgeAnchor{U: 0, V: 1}},
		{AnchorEdge: &EdgeAnchor{U: 1, V: 2}},
	}
	for _, q := range queries {
		exactOpt := DefaultOptions()
		exactOpt.Method = MethodExact
		exactOpt.Query = q
		exact, err := Search(g, exactOpt)
		if err != nil {
			t.Fatalf("%+v exact: %v", q, err)
		}
		if len(exact.Estimates) == 0 {
			t.Fatalf("%+v: empty exact result on figure1", q)
		}
		for _, e := range exact.Estimates {
			if !anchorIn(e.B, q) {
				t.Fatalf("%+v: estimate %+v escapes the anchor", q, e.B)
			}
		}
		exactBest, _ := exact.Best()
		for _, m := range []Method{MethodOS, MethodOLS, MethodOLSKL} {
			opt := DefaultOptions()
			opt.Method = m
			opt.Trials = 6000
			opt.Mu = 0.05
			opt.Query = q
			res, err := Search(g, opt)
			if err != nil {
				t.Fatalf("%+v %s: %v", q, m, err)
			}
			best, ok := res.Best()
			if !ok {
				t.Fatalf("%+v %s: empty result", q, m)
			}
			got, ok := res.Lookup(exactBest.B)
			if !ok {
				t.Fatalf("%+v %s: exact best %+v missing", q, m, exactBest.B)
			}
			if math.Abs(got.P-exactBest.P) > 0.05 {
				t.Errorf("%+v %s: P(best)=%v, exact %v", q, m, got.P, exactBest.P)
			}
			for _, e := range res.Estimates {
				if !anchorIn(e.B, q) {
					t.Fatalf("%+v %s: estimate %+v escapes the anchor", q, m, e.B)
				}
			}
			_ = best
		}
	}
}

func TestAnchoredZeroSupport(t *testing.T) {
	g := pendantPublic(t)
	for _, q := range []*Query{
		{AnchorL: vptr(0)},
		{AnchorR: vptr(0)},
		{AnchorEdge: &EdgeAnchor{U: 0, V: 0}},
	} {
		for _, m := range []Method{MethodExact, MethodOS, MethodOLS} {
			opt := DefaultOptions()
			opt.Method = m
			opt.Trials = 200
			opt.Query = q
			res, err := Search(g, opt)
			if err != nil {
				t.Fatalf("%+v %s: %v", q, m, err)
			}
			if len(res.Estimates) != 0 {
				t.Fatalf("%+v %s: zero-support anchor returned %d estimates", q, m, len(res.Estimates))
			}
			if _, ok := res.Best(); ok {
				t.Fatalf("%+v %s: Best() on a zero-support anchor", q, m)
			}
		}
	}
}

func TestCommunityQuery(t *testing.T) {
	g := twoBlocks(t)
	// Per-community exact references, computed on the whole graph: the
	// blocks are disjoint, so the global exact restricted to a block is
	// that community's exact answer.
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	bestPer := map[int]Estimate{}
	for _, e := range exact.Estimates {
		c := 0
		if e.B.U1 >= 2 {
			c = 1
		}
		if cur, ok := bestPer[c]; !ok || e.P > cur.P {
			bestPer[c] = e
		}
	}

	opt := DefaultOptions()
	opt.Trials = 6000
	opt.Query = &Query{Community: blockLabels()}
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Communities) != 2 {
		t.Fatalf("got %d community results, want 2", len(res.Communities))
	}
	if len(res.Estimates) != 2 {
		t.Fatalf("merged top-k has %d estimates, want 2 (TopK=0 → 1 per community)", len(res.Estimates))
	}
	for _, cr := range res.Communities {
		want, ok := bestPer[cr.Community]
		if !ok {
			t.Fatalf("unexpected community %d", cr.Community)
		}
		got, ok := cr.Result.Best()
		if !ok {
			t.Fatalf("community %d: empty result", cr.Community)
		}
		if got.B != want.B {
			t.Fatalf("community %d: best %+v, want %+v", cr.Community, got.B, want.B)
		}
		if math.Abs(got.P-want.P) > 0.05 {
			t.Errorf("community %d: P=%v, exact %v", cr.Community, got.P, want.P)
		}
	}

	// -1 exclusion: dropping L0 from community 0 removes its only
	// butterfly (a 2×2 block needs both left vertices).
	opt.Query = &Query{Community: &Communities{L: []int{-1, 0, 1, 1}, R: []int{0, 0, 1, 1}}}
	res, err = Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Communities {
		if cr.Community == 0 && len(cr.Result.Estimates) != 0 {
			t.Fatalf("community 0 should be butterfly-free after excluding L0: %+v", cr.Result.Estimates)
		}
	}

	// TopK widens the merged view.
	opt.Query = &Query{Community: &Communities{L: []int{0, 0, 1, 1}, R: []int{0, 0, 1, 1}, TopK: 5}}
	res, err = Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 2 {
		// Each disjoint 2×2 block holds exactly one butterfly.
		t.Fatalf("TopK=5 merged %d estimates, want 2", len(res.Estimates))
	}
}

func TestAdaptivePrepSizing(t *testing.T) {
	g := figure1(t)
	opt := DefaultOptions()
	opt.Trials = 3000
	opt.PrepTrials = 7 // must be overridden by the pre-pass
	opt.Query = &Query{AdaptivePrep: true}
	res, err := Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.PrepSizing == nil {
		t.Fatalf("no prep-sizing report: %+v", res.Adaptive)
	}
	s := res.Adaptive.PrepSizing
	if res.PrepTrials != s.PrepTrials {
		t.Fatalf("PrepTrials=%d, sized %d", res.PrepTrials, s.PrepTrials)
	}
	if res.PrepTrials == 7 {
		t.Fatal("sizing pre-pass did not override Options.PrepTrials")
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("empty result")
	}

	// Composes with the supervisor: the sized budget seeds the audit loop.
	opt.AuditEvery = 500
	res, err = Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.PrepSizing == nil {
		t.Fatalf("supervised run lost the sizing report: %+v", res.Adaptive)
	}
	if res.Adaptive.Escalations != 0 {
		t.Fatalf("sized PrepTrials escalated %d times on figure1", res.Adaptive.Escalations)
	}

	// Composes with anchors and communities.
	opt = DefaultOptions()
	opt.Trials = 2000
	opt.Query = &Query{AnchorL: vptr(0), AdaptivePrep: true}
	res, err = Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.PrepSizing == nil {
		t.Fatal("anchored run has no sizing report")
	}

	opt.Query = &Query{Community: blockLabels(), AdaptivePrep: true}
	res, err = Search(twoBlocks(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Communities {
		if cr.Result.Adaptive == nil || cr.Result.Adaptive.PrepSizing == nil {
			t.Fatalf("community %d has no sizing report", cr.Community)
		}
	}
}

// TestSearcherQueryParity: the Searcher's query paths must return
// bit-identical results to the one-shot Search, on first use and on the
// cached second use.
func TestSearcherQueryParity(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	opts := []Options{
		func() Options {
			o := DefaultOptions()
			o.Trials = 3000
			o.Query = &Query{AnchorL: vptr(0)}
			return o
		}(),
		func() Options {
			o := DefaultOptions()
			o.Trials = 3000
			o.Query = &Query{AnchorEdge: &EdgeAnchor{U: 1, V: 2}}
			return o
		}(),
		func() Options {
			o := DefaultOptions()
			o.Trials = 3000
			o.Query = &Query{AdaptivePrep: true}
			return o
		}(),
	}
	for _, opt := range opts {
		want, err := Search(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := s.Search(opt)
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			if len(got.Estimates) != len(want.Estimates) {
				t.Fatalf("pass %d: %d estimates, want %d", pass, len(got.Estimates), len(want.Estimates))
			}
			for i := range got.Estimates {
				if got.Estimates[i] != want.Estimates[i] {
					t.Fatalf("pass %d: estimate %d = %+v, want %+v", pass, i, got.Estimates[i], want.Estimates[i])
				}
			}
		}
	}

	// Community parity through the cached split.
	bg := twoBlocks(t)
	bs := NewSearcher(bg)
	opt := DefaultOptions()
	opt.Trials = 3000
	opt.Query = &Query{Community: blockLabels()}
	want, err := Search(bg, opt)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := bs.Search(opt)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if len(got.Communities) != len(want.Communities) {
			t.Fatalf("pass %d: %d communities, want %d", pass, len(got.Communities), len(want.Communities))
		}
		for i := range got.Communities {
			gb, _ := got.Communities[i].Result.Best()
			wb, _ := want.Communities[i].Result.Best()
			if gb != wb {
				t.Fatalf("pass %d community %d: best %+v, want %+v", pass, i, gb, wb)
			}
		}
	}
}

func TestAnchoredSearchContextCancel(t *testing.T) {
	g := figure1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Trials = 5000
	opt.Query = &Query{AnchorL: vptr(0)}
	res, err := SearchContext(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("cancelled anchored search returned a complete result")
	}
	if res.Checkpoint != nil {
		t.Fatal("anchored partial results must not carry a checkpoint (Resume is rejected)")
	}
}

// TestAnchoredExactContextCancel: the anchored exact oracle runs the
// global one's world loop, so a cancelled context stops it at the first
// world too.
func TestAnchoredExactContextCancel(t *testing.T) {
	g := figure1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []*Query{{AnchorL: vptr(0)}, {AnchorR: vptr(1)}, {AnchorEdge: &EdgeAnchor{U: 0, V: 1}}} {
		opt := DefaultOptions()
		opt.Method = MethodExact
		opt.Query = q
		res, err := SearchContext(ctx, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial || res.TrialsDone != 1 {
			t.Fatalf("%+v: cancelled anchored exact search: partial=%v after %d worlds, want partial after 1", q, res.Partial, res.TrialsDone)
		}
	}
}
