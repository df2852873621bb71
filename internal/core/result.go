// Package core implements the paper's MPMB algorithms: the exact solver
// (possible-world enumeration), the MC-VP baseline (Algorithm 1), Ordering
// Sampling (Algorithm 2), Ordering-Listing Sampling (Algorithm 3) with
// both the Karp-Luby (Algorithm 4) and the optimized (Algorithm 5)
// probability estimators, the top-k extension (Section VII), and the ε-δ
// trial-number theory (Theorem IV.1, Lemmas V.2 and VI.4, Equation 8).
package core

import (
	"math"
	"sort"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Estimate is one butterfly's estimated probability of being the maximum
// weighted butterfly, P(B) of Equation 4.
type Estimate struct {
	B      butterfly.Butterfly
	Weight float64 // w(B) on the backbone graph
	P      float64 // estimated (or exact) P(B)
}

// Result is the outcome of one MPMB computation.
type Result struct {
	// Method identifies the algorithm that produced the result:
	// "exact", "mc-vp", "os", "ols-kl" or "ols".
	Method string
	// Trials is the number of sampling-phase trials performed. For OLS it
	// excludes the preparing phase (reported separately as PrepTrials).
	Trials int
	// PrepTrials is the preparing-phase trial count (OLS only, else 0).
	PrepTrials int
	// Estimates holds every butterfly that received nonzero probability
	// mass (plus, for OLS, every candidate even at zero), sorted by
	// descending P, ties by descending weight, then canonical vertex
	// order.
	Estimates []Estimate
	// Partial marks a run cut short by cancellation. For the sampling
	// methods the estimates are then normalized over the TrialsDone
	// completed trials — still unbiased, because every trial's stream
	// derives from (Seed, trial index) and a prefix of i.i.d. trials is
	// itself a valid (lower-fidelity) sample. A partial EXACT run is
	// different: its estimates sum only the enumerated-world prefix, so
	// they are deterministic lower bounds on the true probabilities, not
	// unbiased samples (see TrialsDone).
	Partial bool
	// TrialsDone is the completed prefix the estimates are normalized
	// over. It equals Trials for a complete run. Units are sampling trials
	// for mc-vp/os/ols, fully priced candidates for a partial ols-kl run,
	// and enumerated worlds for a partial exact run (whose estimates are
	// then lower bounds, not unbiased samples).
	TrialsDone int
	// Checkpoint carries the resumable accumulator state of a cancelled
	// run (nil for complete runs and for methods without resume support).
	// Pass it back via the options' Resume field to finish the run
	// bit-identically to an uninterrupted one.
	Checkpoint *Checkpoint
	// Adaptive carries the run supervisor's bookkeeping — stop reason,
	// achieved half-width, audit escalations and degradation-ladder
	// transitions. It is nil unless the run went through Supervise.
	Adaptive *AdaptiveReport
	// Metrics is the observer's merged telemetry snapshot taken when the
	// run returned: trial counts, prune splits, supervisor health and the
	// terminal leader estimate. It is nil unless the run was invoked with
	// an observer attached.
	Metrics *telemetry.Metrics
	// Communities holds the per-community results of a community query, in
	// ascending community label order; the top-level Estimates then
	// concatenate each community's top-k. Nil for non-community queries.
	Communities []CommunityResult
}

// sortEstimates establishes the canonical result order.
func sortEstimates(es []Estimate) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.P != b.P {
			return a.P > b.P
		}
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		return lessButterfly(a.B, b.B)
	})
}

func lessButterfly(a, b butterfly.Butterfly) bool {
	if a.U1 != b.U1 {
		return a.U1 < b.U1
	}
	if a.U2 != b.U2 {
		return a.U2 < b.U2
	}
	if a.V1 != b.V1 {
		return a.V1 < b.V1
	}
	return a.V2 < b.V2
}

// Best returns the most probable maximum weighted butterfly, i.e. the
// MPMB answer (Definition 5). ok is false when the graph admitted no
// butterfly in any sampled world.
func (r *Result) Best() (Estimate, bool) {
	if len(r.Estimates) == 0 {
		return Estimate{}, false
	}
	return r.Estimates[0], true
}

// TopK returns the k most probable maximum weighted butterflies (the
// top-k MPMB extension of Section VII), or all of them if fewer exist.
func (r *Result) TopK(k int) []Estimate {
	if k < 0 {
		k = 0
	}
	if k > len(r.Estimates) {
		k = len(r.Estimates)
	}
	out := make([]Estimate, k)
	copy(out, r.Estimates[:k])
	return out
}

// TopKDisjoint returns up to k estimates chosen greedily by descending
// probability such that no two share a vertex. The paper motivates MPMB
// with "scattered visualization" — a dense region contains many
// overlapping near-duplicate butterflies, and vertex-disjoint selection
// returns one representative per region (used by the brain-network use
// case to place its ten markers in distinct clusters).
func (r *Result) TopKDisjoint(k int) []Estimate {
	if k <= 0 {
		return nil
	}
	var out []Estimate
	usedL := make(map[uint32]bool)
	usedR := make(map[uint32]bool)
	for _, e := range r.Estimates {
		if len(out) == k {
			break
		}
		b := e.B
		if usedL[b.U1] || usedL[b.U2] || usedR[b.V1] || usedR[b.V2] {
			continue
		}
		usedL[b.U1], usedL[b.U2] = true, true
		usedR[b.V1], usedR[b.V2] = true, true
		out = append(out, e)
	}
	return out
}

// ConfidenceInterval returns a Wilson score interval for the estimated
// P(B) at the given z value (1.96 ≈ 95%, 2.58 ≈ 99%). It applies to the
// trial-counting methods (mc-vp, os, ols), whose estimates are binomial
// proportions over Result.Trials; for the exact method the interval
// degenerates to [P, P]. ok is false when the butterfly is absent from
// the result or the method's estimates are not binomial proportions
// (ols-kl transforms a different proportion through Equation line 10, so
// a per-butterfly interval needs its trial allocation — use the Lemma
// VI.4 machinery instead).
func (r *Result) ConfidenceInterval(b butterfly.Butterfly, z float64) (lo, hi float64, ok bool) {
	e, found := r.Lookup(b)
	if !found || z <= 0 {
		return 0, 0, false
	}
	switch r.Method {
	case "exact":
		return e.P, e.P, true
	case "mc-vp", "os", "ols":
		trials := r.Trials
		if r.Partial {
			trials = r.TrialsDone // partial estimates are normalized over the prefix
		}
		if trials <= 0 {
			return 0, 0, false
		}
		n := float64(trials)
		p := e.P
		denom := 1 + z*z/n
		center := (p + z*z/(2*n)) / denom
		half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
		lo, hi = center-half, center+half
		if lo < 0 {
			lo = 0
		}
		if hi > 1 {
			hi = 1
		}
		return lo, hi, true
	default:
		return 0, 0, false
	}
}

// Lookup returns the estimate for a specific butterfly, if present.
func (r *Result) Lookup(b butterfly.Butterfly) (Estimate, bool) {
	for _, e := range r.Estimates {
		if e.B == b {
			return e, true
		}
	}
	return Estimate{}, false
}

// probAccumulator tallies, per butterfly, how many trials reported it as a
// maximum weighted butterfly. It is the shared bookkeeping behind MC-VP,
// OS and the OLS preparing phase (lines 18–19 of Algorithm 1, 21–22 of
// Algorithm 2, and the C_MB hit counts of lines 2–4 of Algorithm 3).
type probAccumulator struct {
	// tally keeps each butterfly's count and weight behind a pointer, so
	// crediting a butterfly seen before costs one map lookup: the hot path
	// when a large weight tie class reaches S_MB in every trial.
	tally map[butterfly.Butterfly]*butterflyTally
	// Running leader (argmax of counts), maintained incrementally so
	// instrumented runners can publish a live estimate at each flush
	// without rescanning the map. Telemetry-only: the Result order is
	// still established by sortEstimates.
	leadCount int
	leadB     butterfly.Butterfly
	leadW     float64
}

// butterflyTally is one butterfly's accumulated count and its weight.
type butterflyTally struct {
	n int
	w float64
}

func newProbAccumulator() *probAccumulator {
	return &probAccumulator{tally: make(map[butterfly.Butterfly]*butterflyTally)}
}

// credit adds n trials to butterfly b of weight w.
func (a *probAccumulator) credit(b butterfly.Butterfly, n int, w float64) {
	t := a.tally[b]
	if t == nil {
		t = &butterflyTally{w: w}
		a.tally[b] = t
	}
	t.n += n
	if t.n > a.leadCount {
		a.leadCount, a.leadB, a.leadW = t.n, b, w
	}
}

// addMaxSet credits one trial's maximum set.
func (a *probAccumulator) addMaxSet(m *butterfly.MaxSet) {
	for _, b := range m.Set {
		a.credit(b, 1, m.W)
	}
}

// merge folds another accumulator's tallies into a (used to combine
// worker-local accumulators and resumed checkpoint state).
func (a *probAccumulator) merge(b *probAccumulator) {
	for bf, t := range b.tally {
		a.credit(bf, t.n, t.w)
	}
}

// snapshot exports the accumulator as canonical-order checkpoint entries.
func (a *probAccumulator) snapshot() []ButterflyCount {
	out := make([]ButterflyCount, 0, len(a.tally))
	for b, t := range a.tally {
		out = append(out, ButterflyCount{B: b, Count: int64(t.n), Weight: t.w})
	}
	sort.Slice(out, func(i, j int) bool { return lessButterfly(out[i].B, out[j].B) })
	return out
}

// hits returns the per-butterfly counts as a hit map.
func (a *probAccumulator) hits() map[butterfly.Butterfly]int {
	h := make(map[butterfly.Butterfly]int, len(a.tally))
	for b, t := range a.tally {
		h[b] = t.n
	}
	return h
}

// accumulatorFromCounts rebuilds an accumulator from checkpoint entries.
func accumulatorFromCounts(entries []ButterflyCount) *probAccumulator {
	a := newProbAccumulator()
	for _, e := range entries {
		a.credit(e.B, int(e.Count), e.Weight)
	}
	return a
}

// result converts counts into probabilities P̂(B) = count/trials.
func (a *probAccumulator) result(method string, trials int) *Result {
	return a.resultNorm(method, trials, trials)
}

// resultNorm normalizes counts over norm completed trials while reporting
// trials as the run's target — the partial-result path, where norm < trials.
func (a *probAccumulator) resultNorm(method string, trials, norm int) *Result {
	es := make([]Estimate, 0, len(a.tally))
	for b, t := range a.tally {
		es = append(es, Estimate{
			B:      b,
			Weight: t.w,
			P:      float64(t.n) / float64(norm),
		})
	}
	sortEstimates(es)
	return &Result{Method: method, Trials: trials, TrialsDone: norm, Estimates: es}
}

// partialResult finalizes a cancelled counting run: estimates normalized
// over the done-trial prefix plus a resumable checkpoint.
func (a *probAccumulator) partialResult(method string, g *bigraph.Graph, seed uint64, trials, done int) *Result {
	res := a.resultNorm(method, trials, done)
	res.Partial = true
	res.Checkpoint = &Checkpoint{
		Method:   method,
		Seed:     seed,
		Trials:   trials,
		GraphCRC: g.Checksum(),
		Done:     done,
		Counts:   a.snapshot(),
	}
	return res
}
