package core

import (
	"fmt"
	"sort"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Candidate is one member of the candidate maximum butterfly set C_MB.
type Candidate struct {
	B         butterfly.Butterfly
	Weight    float64           // canonical backbone weight w(B)
	ExistProb float64           // Pr[E(B)], product of the four edge probabilities
	Edges     [4]bigraph.EdgeID // backbone edge ids in canonical order
	Hits      int               // how many preparing trials reported B maximum
}

// Candidates is C_MB: the candidate maximum weighted butterflies collected
// by the OLS preparing phase, sorted by descending weight (ties broken by
// canonical butterfly order so every run produces the same ordering).
// Index 0 is the heaviest candidate; the Karp-Luby index arithmetic
// (L(i), S_i) is defined over this order.
type Candidates struct {
	G    *bigraph.Graph
	List []Candidate
	// PrepDone is how many preparing trials produced List. It equals the
	// requested trial count unless the preparing phase was cancelled
	// through the OSOptions Interrupt hook, in which case List reflects
	// only the completed prefix of trials.
	PrepDone int
	// anchored marks a set listed around an anchor: its partial results
	// carry no checkpoint, since no resume path rebuilds anchored state.
	anchored bool
	// top is the size of the heaviest weight class: the candidates tied
	// with List[0].Weight, whose L(i) is 0.
	top int
}

// PrepareCandidates runs the OLS preparing phase (lines 2–4 of Algorithm
// 3): nPrep Ordering Sampling trials whose per-trial maximum sets are
// unioned into C_MB. Per Lemma VI.1, a butterfly with true probability
// P(B) appears in C_MB with probability 1 − (1−P(B))^nPrep. The pruning
// knobs, Interrupt, Probe and Resume of osOpt apply; its other fields are
// ignored.
//
// If osOpt.Interrupt fires, the phase stops and the returned candidate
// set covers only the completed trials (PrepDone < nPrep); the sampling
// phase converts that into a resumable prepare-phase checkpoint, which
// osOpt.Resume continues bit-identically.
func PrepareCandidates(g *bigraph.Graph, nPrep int, seed uint64, osOpt OSOptions) (*Candidates, error) {
	if ck := osOpt.Resume; ck != nil {
		if !ck.Prepare {
			return nil, fmt.Errorf("core: checkpoint is from the sampling phase, not the preparing phase")
		}
		// Method, Trials and Mu belong to the sampling phase, which checks
		// them when it receives the checkpoint.
		run := *ck
		run.Seed, run.PrepTrials = seed, nPrep
		if err := ck.resumeCheck(run, g); err != nil {
			return nil, err
		}
	}
	return prepare(g, Anchor{}, nPrep, seed, osOpt)
}

// prepare runs the preparing phase as a one-worker Ordering Sampling job
// (anchored when anchor is set) whose per-butterfly maximum tallies are
// the candidate hit counts, continuing the prepare-phase checkpoint
// osOpt.Resume when one is set. With a probe, each butterfly first seen
// in a trial is announced as a promoted candidate (see
// osWorker.creditPromoting).
func prepare(g *bigraph.Graph, anchor Anchor, nPrep int, seed uint64, osOpt OSOptions) (*Candidates, error) {
	if nPrep <= 0 {
		return nil, fmt.Errorf("core: preparing phase requires nPrep > 0, got %d", nPrep)
	}
	r, err := execute(nil, 1, &ExecJob{
		Kind:      ExecOS,
		Graph:     g,
		Seed:      seed,
		Units:     nPrep,
		Anchor:    anchor,
		OS:        osOpt.kernel(),
		Interrupt: osOpt.Interrupt,
		Probe:     osOpt.Probe.WithPhase(telemetry.PhasePrep),
	}, osOpt.Resume)
	if err != nil {
		return nil, err
	}
	c, err := NewCandidates(g, r.acc.hits())
	if err != nil {
		return nil, err
	}
	c.PrepDone = r.Done
	c.anchored = anchor.Kind != 0
	return c, nil
}

// NewCandidates builds a sorted candidate set from a butterfly→hit-count
// map, resolving canonical weights, existence probabilities and edge ids
// against g's backbone. Butterflies not present in the backbone are
// rejected with an error.
func NewCandidates(g *bigraph.Graph, hits map[butterfly.Butterfly]int) (*Candidates, error) {
	list := make([]Candidate, 0, len(hits))
	for b, h := range hits {
		ids, ok := b.EdgeIDs(g)
		if !ok {
			return nil, fmt.Errorf("core: candidate %v is not a backbone butterfly", b)
		}
		w, pr := 0.0, 1.0
		for _, id := range ids {
			w += g.Edge(id).W
			pr *= g.Edge(id).P
		}
		list = append(list, Candidate{B: b, Weight: w, ExistProb: pr, Edges: ids, Hits: h})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Weight != list[j].Weight {
			return list[i].Weight > list[j].Weight
		}
		return lessButterfly(list[i].B, list[j].B)
	})
	top := sort.Search(len(list), func(i int) bool { return list[i].Weight < list[0].Weight })
	return &Candidates{G: g, List: list, top: top}, nil
}

// AllBackboneCandidates lists every backbone butterfly as a candidate set
// with zero hit counts. Useful for exact per-candidate computations and
// estimator tests that want a complete C_MB.
func AllBackboneCandidates(g *bigraph.Graph) (*Candidates, error) {
	all := butterfly.AllBackbone(g)
	hits := make(map[butterfly.Butterfly]int, len(all))
	for _, bw := range all {
		hits[bw.B] = 0
	}
	return NewCandidates(g, hits)
}

// Len returns |C_MB|.
func (c *Candidates) Len() int { return len(c.List) }

// prepCheckpoint cuts the preparing phase's checkpoint from the listing,
// for the run whose header is run: the candidates' hit tallies over the
// PrepDone completed trials, at their canonical weights.
func (c *Candidates) prepCheckpoint(run Checkpoint) *Checkpoint {
	counts := make([]ButterflyCount, 0, len(c.List))
	for _, cand := range c.List {
		counts = append(counts, ButterflyCount{B: cand.B, Count: int64(cand.Hits), Weight: cand.Weight})
	}
	sort.Slice(counts, func(i, j int) bool { return lessButterfly(counts[i].B, counts[j].B) })
	run.Prepare = true
	return (&ExecResult{Done: c.PrepDone, Payload: Payload{Counts: counts}}).checkpoint(run, c.G)
}

// LargerCount returns L(i): the number of candidates whose weight is
// strictly larger than candidate i's — equivalently, the largest index
// j ≤ i such that all candidates before j outweigh candidate i. Because
// the list is weight-sorted descending, this is the start of i's weight
// tie-group.
func (c *Candidates) LargerCount(i int) int {
	w := c.List[i].Weight
	// Binary search for the first index whose weight equals w's group.
	lo, hi := 0, i
	for lo < hi {
		mid := (lo + hi) / 2
		if c.List[mid].Weight > w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DiffEdges returns the edge ids of B_j \ B_i: candidate j's backbone
// edges that are not edges of candidate i.
func (c *Candidates) DiffEdges(j, i int) []bigraph.EdgeID {
	var out []bigraph.EdgeID
	for _, ej := range c.List[j].Edges {
		shared := false
		for _, ei := range c.List[i].Edges {
			if ej == ei {
				shared = true
				break
			}
		}
		if !shared {
			out = append(out, ej)
		}
	}
	return out
}

// DiffProb returns Pr[E(B_j \ B_i)], the probability that every edge of
// candidate j that candidate i does not share is present.
func (c *Candidates) DiffProb(j, i int) float64 {
	p := 1.0
	for _, id := range c.DiffEdges(j, i) {
		p *= c.G.Edge(id).P
	}
	return p
}

// SI returns S_i = Σ_{j<L(i)} Pr[E(B_j\B_i)] (line 4 of Algorithm 4).
func (c *Candidates) SI(i int) float64 {
	s := 0.0
	for j := 0; j < c.LargerCount(i); j++ {
		s += c.DiffProb(j, i)
	}
	return s
}

// result assembles a Result from per-candidate probabilities.
func (c *Candidates) result(method string, probs []float64, trials, prepTrials int) *Result {
	es := make([]Estimate, len(c.List))
	for i, cand := range c.List {
		es[i] = Estimate{B: cand.B, Weight: cand.Weight, P: probs[i]}
	}
	sortEstimates(es)
	return &Result{Method: method, Trials: trials, PrepTrials: prepTrials, Estimates: es}
}
