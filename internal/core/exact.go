package core

import (
	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
)

// Exact computes P(B) for every butterfly by exhaustively enumerating all
// 2^|E| possible worlds (Equation 4) and brute-force listing each world's
// maximum weighted butterfly set. It is the ground truth against which
// every sampler in this package is validated, and is limited to graphs
// with at most possible.MaxEnumerableEdges edges — the very intractability
// that motivates the paper's sampling algorithms.
func Exact(g *bigraph.Graph) (*Result, error) {
	return ExactInterruptible(g, nil)
}

// ExactInterruptible is Exact with a cancellation hook, polled every few
// thousand enumerated worlds. A cancelled enumeration returns a partial
// Result whose estimates sum only the worlds visited so far — lower
// bounds on the true probabilities, NOT unbiased samples (worlds are
// enumerated in a fixed order, not drawn at random) — with TrialsDone
// reporting the visited world count. There is no checkpoint: re-running
// the enumeration is the only way to finish, and graphs small enough to
// enumerate restart cheaply.
func ExactInterruptible(g *bigraph.Graph, interrupt func() bool) (*Result, error) {
	return exactWorlds(g, nil, interrupt)
}

// ExactAnchored is ExactInterruptible with each world's maximum set taken
// over the butterflies containing a alone: the brute-force oracle the
// statcheck harness certifies the anchored estimators against. It lists
// butterflies with the reference enumerator, so it shares no code with
// the anchored trial kernel. An anchor contained in no butterfly yields
// an empty Result.
func ExactAnchored(g *bigraph.Graph, a Anchor, interrupt func() bool) (*Result, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	return exactWorlds(g, a.contains, interrupt)
}

// exactWorlds is the world loop of the exact oracles. keep, when non-nil,
// restricts each world's maximum set to the butterflies it accepts.
func exactWorlds(g *bigraph.Graph, keep func(butterfly.Butterfly) bool, interrupt func() bool) (*Result, error) {
	probs := make(map[butterfly.Butterfly]float64)
	weights := make(map[butterfly.Butterfly]float64)
	worlds := 0
	interrupted := false
	var m butterfly.MaxSet
	err := possible.Enumerate(g, func(w *possible.World, pr float64) bool {
		worlds++
		// Poll on the first world (so a pre-cancelled run stops immediately
		// even when the whole enumeration is under one batch) and then
		// every 4096 worlds.
		if worlds%4096 == 1 && interrupt != nil && interrupt() {
			interrupted = true
			return false
		}
		if pr == 0 {
			return true
		}
		m.Reset()
		butterfly.ForEachInWorld(g, w, func(b butterfly.Butterfly, wt float64) bool {
			if keep == nil || keep(b) {
				m.Add(b, wt)
			}
			return true
		})
		for _, b := range m.Set {
			probs[b] += pr
			weights[b] = m.W
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	es := make([]Estimate, 0, len(probs))
	for b, p := range probs {
		es = append(es, Estimate{B: b, Weight: weights[b], P: p})
	}
	sortEstimates(es)
	res := &Result{Method: "exact", Estimates: es}
	if interrupted {
		res.Partial = true
		res.TrialsDone = worlds
	}
	return res, nil
}

// ExactProb computes P(B) for a single butterfly by world enumeration,
// subject to the same edge-count limit as Exact. A butterfly that is not
// part of the backbone has probability 0.
func ExactProb(g *bigraph.Graph, b butterfly.Butterfly) (float64, error) {
	if _, ok := b.EdgeIDs(g); !ok {
		return 0, nil
	}
	total := 0.0
	err := possible.Enumerate(g, func(w *possible.World, pr float64) bool {
		if pr == 0 {
			return true
		}
		m := butterfly.MaxWeightSet(g, w)
		for _, mb := range m.Set {
			if mb == b {
				total += pr
				break
			}
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}
