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
//
// The tally is an open-addressing table in angleTable's style:
// power-of-two capacity, linear probing, growth at 3/4 load, and each
// butterfly's count and weight inline in its slot, so a credit is one
// probe walk and no allocation. On tie-heavy graphs S_MB holds thousands
// of butterflies per trial, and crediting them is the hot path beside
// the trial kernel (docs/ALGORITHMS.md, "The butterfly tally").
type probAccumulator struct {
	slots []tallySlot // nil until the first credit
	mask  uint64
	live  int
	// Running leader (argmax of counts), maintained incrementally so
	// instrumented runners can publish a live estimate at each flush
	// without rescanning the table. Telemetry-only: the Result order is
	// still established by sortEstimates.
	leadCount int
	leadB     butterfly.Butterfly
	leadW     float64
}

// tallySlot is one 32-byte table slot: a butterfly, its weight, and nocc,
// which holds count<<1 | 1 once the slot is taken and 0 while it is
// empty. The occupancy bit is kept apart from the count because a
// butterfly can be tallied at zero hits (the supervisor merges
// audit-missed butterflies that way, and checkpoints carry zero counts).
type tallySlot struct {
	b    butterfly.Butterfly
	w    float64
	nocc uint64
}

func (s *tallySlot) count() int { return int(s.nocc >> 1) }

// minTallyCap is the capacity of a table's first allocation; growth is by
// doubling.
const minTallyCap = 16

func newProbAccumulator() *probAccumulator { return &probAccumulator{} }

// tallyHash maps a butterfly to a home-slot hash: its two packed 64-bit
// halves folded into one word and finished with mix64.
func tallyHash(b butterfly.Butterfly) uint64 {
	hi := uint64(b.U1)<<32 | uint64(b.U2)
	lo := uint64(b.V1)<<32 | uint64(b.V2)
	return mix64(hi ^ lo*0x9e3779b97f4a7c15)
}

// credit adds n ≥ 0 trials to butterfly b of weight w and reports whether
// b was new to the tally. A new butterfly keeps w; later credits only add
// to its count.
func (a *probAccumulator) credit(b butterfly.Butterfly, n int, w float64) bool {
	if a.slots == nil {
		a.grow(minTallyCap)
	}
	h := tallyHash(b)
	i := h & a.mask
	for {
		s := &a.slots[i]
		if s.nocc == 0 {
			break
		}
		if s.b == b {
			s.nocc += uint64(n) << 1
			if c := s.count(); c > a.leadCount {
				a.leadCount, a.leadB, a.leadW = c, b, s.w
			}
			return false
		}
		i = (i + 1) & a.mask
	}
	if (a.live+1)*4 > len(a.slots)*3 {
		a.grow(2 * len(a.slots))
		i = h & a.mask
		for a.slots[i].nocc != 0 {
			i = (i + 1) & a.mask
		}
	}
	a.slots[i] = tallySlot{b: b, w: w, nocc: uint64(n)<<1 | 1}
	a.live++
	if n > a.leadCount {
		a.leadCount, a.leadB, a.leadW = n, b, w
	}
	return true
}

// grow rehashes the table into capacity slots, a power of two.
func (a *probAccumulator) grow(capacity int) {
	old := a.slots
	a.slots = make([]tallySlot, capacity)
	a.mask = uint64(capacity - 1)
	for k := range old {
		s := &old[k]
		if s.nocc == 0 {
			continue
		}
		i := tallyHash(s.b) & a.mask
		for a.slots[i].nocc != 0 {
			i = (i + 1) & a.mask
		}
		a.slots[i] = *s
	}
}

// addMaxSet credits one trial's maximum set.
func (a *probAccumulator) addMaxSet(m *butterfly.MaxSet) {
	for _, b := range m.Set {
		a.credit(b, 1, m.W)
	}
}

// merge folds another accumulator's tallies into a (used to combine
// worker-local accumulators).
func (a *probAccumulator) merge(b *probAccumulator) {
	for k := range b.slots {
		if s := &b.slots[k]; s.nocc != 0 {
			a.credit(s.b, s.count(), s.w)
		}
	}
}

// mergeCounts folds checkpoint entries into a (resumed state and remote
// executors' payloads).
func (a *probAccumulator) mergeCounts(entries []ButterflyCount) {
	for _, e := range entries {
		a.credit(e.B, int(e.Count), e.Weight)
	}
}

// snapshot exports the accumulator as canonical-order checkpoint entries.
func (a *probAccumulator) snapshot() []ButterflyCount {
	out := make([]ButterflyCount, 0, a.live)
	for k := range a.slots {
		if s := &a.slots[k]; s.nocc != 0 {
			out = append(out, ButterflyCount{B: s.b, Count: int64(s.count()), Weight: s.w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessButterfly(out[i].B, out[j].B) })
	return out
}

// hits returns the per-butterfly counts as a hit map.
func (a *probAccumulator) hits() map[butterfly.Butterfly]int {
	h := make(map[butterfly.Butterfly]int, a.live)
	for k := range a.slots {
		if s := &a.slots[k]; s.nocc != 0 {
			h[s.b] = s.count()
		}
	}
	return h
}

// accumulatorFromCounts rebuilds an accumulator from checkpoint entries.
func accumulatorFromCounts(entries []ButterflyCount) *probAccumulator {
	a := newProbAccumulator()
	a.mergeCounts(entries)
	return a
}

// result converts counts into probabilities P̂(B) = count/trials.
func (a *probAccumulator) result(method string, trials int) *Result {
	return a.resultNorm(method, trials, trials)
}

// resultNorm normalizes counts over norm completed trials while reporting
// trials as the run's target — the partial-result path, where norm < trials.
func (a *probAccumulator) resultNorm(method string, trials, norm int) *Result {
	es := make([]Estimate, 0, a.live)
	for k := range a.slots {
		if s := &a.slots[k]; s.nocc != 0 {
			es = append(es, Estimate{
				B:      s.b,
				Weight: s.w,
				P:      float64(s.count()) / float64(norm),
			})
		}
	}
	sortEstimates(es)
	return &Result{Method: method, Trials: trials, TrialsDone: norm, Estimates: es}
}
