package statcheck

import (
	"fmt"
	"math"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/interval"
)

// This file extends the conformance harness to the query variants: the
// anchored runs (vertex- and edge-anchored OS and OLS, the OS kernel over
// an anchor's view) and the per-community split. Each variant is
// checked against its own exact brute-force oracle — core.ExactAnchored
// for the anchored runs (Exact's world loop keeping only the butterflies
// through the anchor, so it shares no code with the kernel) and
// per-subgraph core.Exact for the community split — with the same
// Hoeffding acceptance intervals as the global methods.

// Seed slots of the variant runs (slots 0..3 belong to the global
// estimators, 8..15 to the metamorphic checks).
const (
	slotAnchoredOS  = 4
	slotAnchoredOLS = 5
	slotCommunity   = 6
)

// caseAnchors picks the anchors exercised on every corpus case: the
// first left vertex, the last right vertex and the heaviest backbone
// edge. Together they cover both vertex sides, the forced-angle edge
// path, and (on the pendant case) a zero-support anchor.
func caseAnchors(g *bigraph.Graph) []core.Anchor {
	var out []core.Anchor
	if g.NumL() > 0 {
		out = append(out, core.Anchor{Kind: core.AnchorLeft, U: 0})
	}
	if g.NumR() > 0 {
		out = append(out, core.Anchor{Kind: core.AnchorRight, V: bigraph.VertexID(g.NumR() - 1)})
	}
	if ids := g.EdgesByWeightDesc(); len(ids) > 0 {
		e := g.Edge(ids[0])
		out = append(out, core.Anchor{Kind: core.AnchorEdge, U: e.U, V: e.V})
	}
	return out
}

// anchorMix folds an anchor into a seed so each anchor of a case gets a
// distinct random stream within its slot.
func anchorMix(seed uint64, a core.Anchor) uint64 {
	return seed ^ (uint64(a.Kind)<<40|uint64(a.U)<<20|uint64(a.V)+1)*0x9e3779b97f4a7c15
}

// runVariants executes the anchored and community conformance checks of
// one corpus case.
func (h *harness) runVariants(ci int, cs *CaseReport, g *bigraph.Graph) error {
	for _, a := range caseAnchors(g) {
		if err := h.runAnchored(ci, cs, g, a); err != nil {
			return fmt.Errorf("anchor %v: %w", a, err)
		}
	}
	return h.runCommunity(ci, cs, g)
}

// runAnchored checks the anchored OS kernel against the anchored exact
// oracle and the anchored OLS sampling phase against its
// candidate-restricted oracle, plus the Lemma VI.1 coverage gate
// transposed to the anchored candidate set. A zero-support anchor is a
// deterministic contract: every anchored run must return exactly no
// estimates, checked as a metamorphic (unbudgeted) invariant.
func (h *harness) runAnchored(ci int, cs *CaseReport, g *bigraph.Graph, a core.Anchor) error {
	exact, err := core.ExactAnchored(g, a, nil)
	if err != nil {
		return err
	}
	exactP := make(map[butterfly.Butterfly]float64, len(exact.Estimates))
	for _, e := range exact.Estimates {
		exactP[e.B] = e.P
	}

	osRes, err := core.AnchoredOS(g, a, core.OSOptions{
		Trials: h.cfg.Trials,
		Seed:   anchorMix(h.seedFor(ci, slotAnchoredOS), a),
	})
	if err != nil {
		return err
	}
	h.compareCounting(cs, "anchored-os", osRes, exact, exactP)
	if len(exact.Estimates) == 0 && len(osRes.Estimates) != 0 {
		h.metaViolation(cs, "%s: zero-support anchor %v produced %d anchored-os estimates",
			cs.Name, a, len(osRes.Estimates))
	}

	seed := anchorMix(h.seedFor(ci, slotAnchoredOLS), a)
	cands, err := core.PrepareAnchoredCandidates(g, a, h.cfg.PrepTrials, seed, nil)
	if err != nil {
		return err
	}
	inCands := make(map[butterfly.Butterfly]bool, cands.Len())
	for _, cand := range cands.List {
		inCands[cand.B] = true
	}
	for _, b := range h.exactOrder(exactP) {
		if exactP[b] >= h.cfg.MissThreshold && !inCands[b] {
			h.missViolation(cs, "anchored-ols", b, exactP[b])
		}
	}
	if len(exact.Estimates) == 0 && cands.Len() != 0 {
		h.metaViolation(cs, "%s: zero-support anchor %v listed %d anchored candidates",
			cs.Name, a, cands.Len())
	}
	if cands.Len() == 0 {
		return nil
	}

	oracle, err := core.ExactCandidateProbs(cands)
	if err != nil {
		return err
	}
	res, err := core.OLSSamplingPhaseParallel(cands, core.OLSOptions{
		PrepTrials: h.cfg.PrepTrials,
		Trials:     h.cfg.Trials,
		Seed:       seed,
	}, 1)
	if err != nil {
		return err
	}
	est := make(map[butterfly.Butterfly]float64, len(res.Estimates))
	for _, e := range res.Estimates {
		est[e.B] = h.sabotaged(e.P)
	}
	eps := interval.HoeffdingHalfWidth(h.cfg.Trials, h.cfg.Alpha)
	for i, cand := range cands.List {
		got, ok := est[cand.B]
		if !ok {
			return fmt.Errorf("anchored-ols: candidate %v has no estimate", cand.B)
		}
		h.record(cs, "anchored-ols", "anchored "+cand.B.String(), got, oracle[i], eps,
			math.Abs(got-exactP[cand.B]))
	}
	return nil
}

// runCommunity splits the case graph down the middle of each side and
// checks a per-community sampled run (OS on each induced subgraph,
// remapped to parent ids) against the per-community exact oracle (exact
// enumeration of each induced subgraph, remapped the same way).
func (h *harness) runCommunity(ci int, cs *CaseReport, g *bigraph.Graph) error {
	spec := halfSplitSpec(g)
	subs, err := core.CommunitySubgraphs(g, spec)
	if err != nil {
		return err
	}
	exactMerged := &core.Result{}
	sampledMerged := &core.Result{}
	for _, cg := range subs {
		ex, err := core.Exact(cg.G)
		if err != nil {
			return err
		}
		exactMerged.Estimates = append(exactMerged.Estimates, cg.RemapResult(ex).Estimates...)
		os, err := core.OS(cg.G, core.OSOptions{
			Trials: h.cfg.Trials,
			Seed:   h.seedFor(ci, slotCommunity) ^ (uint64(cg.ID)+1)*0x9e3779b97f4a7c15,
		})
		if err != nil {
			return err
		}
		sampledMerged.Estimates = append(sampledMerged.Estimates, cg.RemapResult(os).Estimates...)
	}
	exactP := make(map[butterfly.Butterfly]float64, len(exactMerged.Estimates))
	for _, e := range exactMerged.Estimates {
		exactP[e.B] = e.P
	}
	h.compareCounting(cs, "community", sampledMerged, exactMerged, exactP)
	return nil
}

// halfSplitSpec labels the first half of each vertex side community 0
// and the rest community 1 — communities are induced per label, so
// cross-half butterflies are out of scope by definition.
func halfSplitSpec(g *bigraph.Graph) core.CommunitySpec {
	spec := core.CommunitySpec{L: make([]int, g.NumL()), R: make([]int, g.NumR())}
	for i := range spec.L {
		if i >= g.NumL()/2 {
			spec.L[i] = 1
		}
	}
	for i := range spec.R {
		if i >= g.NumR()/2 {
			spec.R[i] = 1
		}
	}
	return spec
}
