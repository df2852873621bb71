// Package statcheck is the statistical conformance harness: it runs
// every estimator in internal/core (MC-VP, OS, OLS, OLS-KL) against the
// exact oracles on a corpus of small enumerable graphs and checks the
// results with distribution-free acceptance intervals plus deterministic
// metamorphic invariants.
//
// The statistical contract: each estimator's per-butterfly estimate is a
// binomial proportion (or a fixed affine transform of one) over
// Config.Trials trials, so the Hoeffding half-width of
// internal/interval bounds its deviation from the method's
// oracle with per-comparison error probability Config.Alpha. At the
// default Alpha = 1e-9 the whole corpus (a few thousand comparisons)
// produces a false alarm with probability ~1e-6, which makes the suite
// deterministic-given-seed in practice; Config.FailureBudget adds slack
// on top. The oracles differ per method: mc-vp and os estimate the true
// P(B) (core.Exact); the OLS sampling phases estimate the
// candidate-restricted value (core.ExactCandidateProbs) — on a truncated
// C_MB they converge to that, not to P(B) (Lemma VI.5), so comparing
// them against core.Exact directly would be testing the wrong contract.
//
// The harness must also demonstrably FAIL when an estimator is broken;
// Config.Sabotage injects known faults (dropping the A2 angle class,
// scaling estimates) and the package tests assert the suite rejects
// them.
package statcheck

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/interval"
)

// Sabotage injects deliberate estimator faults so the harness's power —
// its ability to detect a broken estimator — is itself testable. All
// fields zero means no sabotage (the normal conformance run).
type Sabotage struct {
	// DropA2 runs Ordering Sampling (and the OLS preparing phase) with
	// the second angle weight class discarded (OSOptions.DropA2): a real
	// systematic bias that loses every butterfly formed from the top
	// angle plus a strictly lighter one.
	DropA2 bool
	// ScaleEstimates multiplies every method's estimates by this factor
	// after the run (0 and 1 mean off), emulating a miscalibrated
	// estimator. Any case with a confidently-estimated candidate turns
	// this into interval violations.
	ScaleEstimates float64
}

// Config parameterizes a conformance run. Results are a pure function of
// the Config and the corpus: same inputs, same Report, bit for bit.
type Config struct {
	// Seed drives every estimator run (corpus graphs are fixed and do
	// not depend on it).
	Seed uint64
	// Trials is the sampling-phase trial count per estimator. Must be > 0.
	Trials int
	// PrepTrials is the OLS preparing-phase trial count. Must be > 0.
	PrepTrials int
	// Alpha is the per-comparison two-sided error probability of the
	// acceptance intervals. Must be in (0, 1).
	Alpha float64
	// FailureBudget is the corpus-wide number of interval violations
	// tolerated before the run fails. Metamorphic violations are never
	// budgeted — they indicate deterministic bugs.
	FailureBudget int
	// MissThreshold: a butterfly with exact P(B) at or above this value
	// must appear in the OLS candidate set, or the run records a
	// violation. Per Lemma VI.1 the miss probability is
	// (1−P(B))^PrepTrials — at the defaults (0.15, 100) that is 8.7e-8,
	// comfortably inside the false-alarm budget. 0 means the 0.15
	// default.
	MissThreshold float64
	// Sabotage injects deliberate faults (see Sabotage).
	Sabotage Sabotage

	// SelfHealing enables the under-prepared OLS demonstration: a
	// deliberately starved preparing phase (a single trial) on the
	// angle-stressor graph, whose exact leader (P ≈ 0.08) the plain
	// optimized estimator then misses — an error the ordinary
	// candidate-restricted oracle and the Lemma VI.1 gate (MissThreshold
	// 0.15) cannot see, because the truncated candidate set is internally
	// consistent. The check therefore compares the leader's estimate
	// against the TRUE exact probability with a plain Hoeffding band.
	// With AuditEvery == 0 the demonstration runs unsupervised and fails
	// the report; with AuditEvery > 0 it runs through the adaptive
	// supervisor, whose coverage audits widen the candidate set until the
	// leader estimate is admissible again.
	SelfHealing bool
	// AuditEvery is the supervised audit cadence of the self-healing
	// check (0 = plain, unsupervised run).
	AuditEvery int
	// Epsilon forwards accuracy-aware stopping to the supervised
	// self-healing run (0 = off).
	Epsilon float64
	// Deadline forwards a wall-clock bound to the supervised self-healing
	// run (zero = off). A deadline makes the run time-dependent, trading
	// the harness's pure-function-of-Config property for boundedness.
	Deadline time.Time
}

// DefaultConfig returns the configuration used by `go test
// ./internal/statcheck` and `mpmb-bench conformance`.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		Trials:        4000,
		PrepTrials:    100,
		Alpha:         1e-9,
		FailureBudget: 2,
		MissThreshold: 0.15,
	}
}

const (
	// exactEqTol absorbs float association differences when comparing
	// two ways of computing the same closed-form product (for candidates
	// the Karp-Luby estimator prices without sampling).
	exactEqTol = 1e-9
	// maxDetails caps the violation descriptions carried in the Report.
	maxDetails = 25
	// metaTrials is the trial count of the bit-identity metamorphic runs
	// (any count works — identity does not depend on convergence).
	metaTrials = 300
	// selfHealMaxEscalations is the escalation budget of the supervised
	// self-healing run. The one-trial prep starts so far behind that a
	// handful of doublings (1 → 2 → 4 → ...) is needed before the
	// candidate set covers every co-maximal butterfly.
	selfHealMaxEscalations = 8
	// reportTolerance is the half-width target that TrialsToTolerance is
	// quoted for.
	reportTolerance = 0.01
)

// methodAcc accumulates one estimator's corpus-wide statistics.
type methodAcc struct {
	comparisons int
	violations  int
	sumAbsErr   float64
	maxAbsErr   float64
	maxVsExact  float64
	maxKLScale  float64
}

type harness struct {
	cfg Config
	rep *Report
	acc map[string]*methodAcc
}

var methodOrder = []string{"mc-vp", "os", "ols", "ols-kl", "anchored-os", "anchored-ols", "community"}

// Run executes the conformance harness over the corpus and returns the
// report. An error means the harness itself could not run (oracle
// failure, invalid config) — estimator disagreement is reported through
// Report.Pass, never through the error.
func Run(cfg Config, corpus []Case) (*Report, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("statcheck: Trials must be > 0, got %d", cfg.Trials)
	}
	if cfg.PrepTrials <= 0 {
		return nil, fmt.Errorf("statcheck: PrepTrials must be > 0, got %d", cfg.PrepTrials)
	}
	if !(cfg.Alpha > 0 && cfg.Alpha < 1) {
		return nil, fmt.Errorf("statcheck: Alpha %v outside (0, 1)", cfg.Alpha)
	}
	if cfg.MissThreshold == 0 {
		cfg.MissThreshold = 0.15
	}
	h := &harness{
		cfg: cfg,
		rep: &Report{
			Seed:          cfg.Seed,
			Trials:        cfg.Trials,
			PrepTrials:    cfg.PrepTrials,
			Alpha:         cfg.Alpha,
			FailureBudget: cfg.FailureBudget,
		},
		acc: make(map[string]*methodAcc),
	}
	for _, m := range methodOrder {
		h.acc[m] = &methodAcc{}
	}
	for ci, c := range corpus {
		if err := h.runCase(ci, c); err != nil {
			return nil, fmt.Errorf("statcheck: case %q: %w", c.Name, err)
		}
	}
	if cfg.SelfHealing {
		if err := h.runSelfHealing(); err != nil {
			return nil, fmt.Errorf("statcheck: self-healing check: %w", err)
		}
	}
	h.summarize()
	return h.rep, nil
}

// selfHealPrepTrials is the deliberately starved preparing phase of the
// self-healing demonstration: one trial lists at most one world's maxima.
const selfHealPrepTrials = 1

// runSelfHealing executes the under-prepared OLS demonstration (see
// Config.SelfHealing): plain OLS with a one-trial preparing phase on the
// angle-stressor graph misses the exact leader, and only the supervised
// run's coverage audits recover it.
func (h *harness) runSelfHealing() error {
	g := angleClasses()
	exact, err := core.Exact(g)
	if err != nil {
		return err
	}
	leader, ok := exact.Best()
	if !ok {
		return fmt.Errorf("angle-stressor graph has no butterflies")
	}
	var res *core.Result
	if h.cfg.AuditEvery > 0 {
		res, err = core.Supervise(g, core.SupervisorOptions{
			Method:         "ols",
			Trials:         h.cfg.Trials,
			PrepTrials:     selfHealPrepTrials,
			Seed:           h.cfg.Seed,
			AuditEvery:     h.cfg.AuditEvery,
			MaxEscalations: selfHealMaxEscalations,
			Epsilon:        h.cfg.Epsilon,
			Deadline:       h.cfg.Deadline,
		})
	} else {
		res, err = core.OLS(g, core.OLSOptions{
			PrepTrials: selfHealPrepTrials,
			Trials:     h.cfg.Trials,
			Seed:       h.cfg.Seed,
		})
	}
	if err != nil {
		return err
	}
	est := 0.0
	if e, found := res.Lookup(leader.B); found {
		est = e.P
	}
	n := res.TrialsDone
	if n <= 0 {
		n = h.cfg.Trials
	}
	// The healed estimate converges to the TRUE P(B*): once the audits
	// have merged every co-maximal butterfly into the candidate set the
	// leader's count is Bin(n, P(B*)), so the plain Hoeffding band
	// applies. An unhealed run leaves the leader out entirely (estimate
	// 0, error ≈ 0.08 — far outside the band at any realistic n).
	eps := interval.HoeffdingHalfWidth(n, h.cfg.Alpha)
	sh := &SelfHealingReport{
		Case:       "angle-classes",
		PrepTrials: selfHealPrepTrials,
		AuditEvery: h.cfg.AuditEvery,
		Method:     res.Method,
		ExactP:     leader.P,
		Estimate:   est,
		AbsErr:     math.Abs(est - leader.P),
		HalfWidth:  eps,
		Trials:     n,
	}
	if res.Adaptive != nil {
		sh.Audits = res.Adaptive.Audits
		sh.Escalations = res.Adaptive.Escalations
		sh.StopReason = string(res.Adaptive.StopReason)
	}
	sh.Healed = sh.AbsErr <= eps
	if !sh.Healed {
		h.detail("self-healing/%s: leader %v estimate %.4g vs exact %.4g: error %.3g exceeds Hoeffding band %.3g (prep trials %d, audit cadence %d)",
			sh.Case, leader.B, est, leader.P, sh.AbsErr, eps, selfHealPrepTrials, h.cfg.AuditEvery)
	}
	h.rep.SelfHealing = sh
	return nil
}

// seedFor derives a distinct estimator seed per (case, slot) so no two
// runs share a random stream.
func (h *harness) seedFor(ci, slot int) uint64 {
	return h.cfg.Seed ^ uint64(ci*16+slot+1)*0x9e3779b97f4a7c15
}

// sabotaged applies the ScaleEstimates fault to a raw estimate.
func (h *harness) sabotaged(p float64) float64 {
	if s := h.cfg.Sabotage.ScaleEstimates; s != 0 && s != 1 {
		return p * s
	}
	return p
}

func (h *harness) runCase(ci int, c Case) error {
	g := c.G
	exact, err := core.Exact(g)
	if err != nil {
		return err
	}
	exactP := make(map[butterfly.Butterfly]float64, len(exact.Estimates))
	for _, e := range exact.Estimates {
		exactP[e.B] = e.P
	}
	cs := CaseReport{
		Name:        c.Name,
		NumEdges:    g.NumEdges(),
		Butterflies: len(butterfly.AllBackbone(g)),
	}

	mres, err := core.MCVP(g, core.MCVPOptions{Trials: h.cfg.Trials, Seed: h.seedFor(ci, 0)})
	if err != nil {
		return err
	}
	h.compareCounting(&cs, "mc-vp", mres, exact, exactP)

	ores, err := core.OS(g, core.OSOptions{
		Trials: h.cfg.Trials,
		Seed:   h.seedFor(ci, 1),
		DropA2: h.cfg.Sabotage.DropA2,
	})
	if err != nil {
		return err
	}
	h.compareCounting(&cs, "os", ores, exact, exactP)

	if err := h.runOLS(ci, &cs, g, exactP, false); err != nil {
		return err
	}
	if err := h.runOLS(ci, &cs, g, exactP, true); err != nil {
		return err
	}

	if err := h.runMetamorphic(ci, &cs, g, exactP); err != nil {
		return err
	}

	if err := h.runVariants(ci, &cs, g); err != nil {
		return err
	}

	h.rep.Cases = append(h.rep.Cases, cs)
	return nil
}

// compareCounting checks a world-sampling method (mc-vp, os) against the
// exact P(B): per-butterfly counts over Trials worlds are Bin(N, P(B)),
// so the plain Hoeffding half-width applies. A butterfly the method
// never reported counts as estimate 0; a reported butterfly absent from
// the exact result is compared against 0.
func (h *harness) compareCounting(cs *CaseReport, method string, res *core.Result, exact *core.Result, exactP map[butterfly.Butterfly]float64) {
	eps := interval.HoeffdingHalfWidth(h.cfg.Trials, h.cfg.Alpha)
	got := make(map[butterfly.Butterfly]float64, len(res.Estimates))
	for _, e := range res.Estimates {
		got[e.B] = h.sabotaged(e.P)
	}
	// Exact estimates first (deterministic order), then extras.
	for _, e := range exact.Estimates {
		p := got[e.B]
		h.record(cs, method, e.B.String(), p, e.P, eps, math.Abs(p-e.P))
		delete(got, e.B)
	}
	for _, e := range res.Estimates {
		if p, extra := got[e.B]; extra {
			h.record(cs, method, e.B.String(), p, 0, eps, p)
		}
	}
}

// runOLS checks one OLS configuration (optimized or Karp-Luby sampling
// phase) against the candidate-restricted exact oracle, plus the Lemma
// VI.1 candidate-coverage gate against the true exact probabilities.
func (h *harness) runOLS(ci int, cs *CaseReport, g *bigraph.Graph, exactP map[butterfly.Butterfly]float64, useKL bool) error {
	method, slot := "ols", 2
	if useKL {
		method, slot = "ols-kl", 3
	}
	seed := h.seedFor(ci, slot)

	cands, err := core.PrepareCandidates(g, h.cfg.PrepTrials, seed,
		core.OSOptions{DropA2: h.cfg.Sabotage.DropA2})
	if err != nil {
		return err
	}

	// Candidate-coverage gate (Lemma VI.1): a butterfly with exact
	// probability at or above MissThreshold missing from C_MB is a
	// violation — either the preparing phase is broken or we hit the
	// ~1e-7 miss probability. This must run even when the (possibly
	// sabotaged) preparing phase produced no candidates at all.
	inCands := make(map[butterfly.Butterfly]bool, cands.Len())
	for _, cand := range cands.List {
		inCands[cand.B] = true
	}
	for _, e := range h.exactOrder(exactP) {
		if exactP[e] >= h.cfg.MissThreshold && !inCands[e] {
			h.missViolation(cs, method, e, exactP[e])
		}
	}
	if cands.Len() == 0 {
		return nil
	}

	oracle, err := core.ExactCandidateProbs(cands)
	if err != nil {
		return err
	}
	res, err := core.OLSSamplingPhaseParallel(cands, core.OLSOptions{
		PrepTrials:  h.cfg.PrepTrials,
		Trials:      h.cfg.Trials,
		Seed:        seed,
		UseKarpLuby: useKL,
	}, 1)
	if err != nil {
		return err
	}
	est := make(map[butterfly.Butterfly]float64, len(res.Estimates))
	for _, e := range res.Estimates {
		est[e.B] = h.sabotaged(e.P)
	}

	a := h.acc[method]
	for i, cand := range cands.List {
		got, ok := est[cand.B]
		if !ok {
			return fmt.Errorf("%s: candidate %v has no estimate", method, cand.B)
		}
		want := oracle[i]
		vsExact := math.Abs(got - exactP[cand.B])
		var eps float64
		switch {
		case useKL && (cands.LargerCount(i) == 0 || cands.SI(i) == 0):
			// Karp-Luby prices these candidates in closed form (no
			// sampling): the estimate must equal the oracle exactly,
			// modulo float association.
			eps = exactEqTol
		case useKL:
			// The KL estimate is ExistProb·(1 − S_i·proportion): an
			// affine transform of a binomial proportion with scale
			// ExistProb·S_i.
			scale := cand.ExistProb * cands.SI(i)
			if scale > a.maxKLScale {
				a.maxKLScale = scale
			}
			eps = interval.ScaledHalfWidth(scale, h.cfg.Trials, h.cfg.Alpha)
		default:
			// The optimized estimator's per-candidate count is
			// Bin(Trials, oracle value): plain Hoeffding applies.
			eps = interval.HoeffdingHalfWidth(h.cfg.Trials, h.cfg.Alpha)
		}
		h.record(cs, method, cand.B.String(), got, want, eps, vsExact)
	}
	return nil
}

// exactOrder returns the butterflies of an exact-probability map in
// canonical deterministic order, so violation details and detail-cap
// truncation never depend on map iteration order.
func (h *harness) exactOrder(exactP map[butterfly.Butterfly]float64) []butterfly.Butterfly {
	out := make([]butterfly.Butterfly, 0, len(exactP))
	for b := range exactP {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return lessButterfly(out[i], out[j]) })
	return out
}

func lessButterfly(a, b butterfly.Butterfly) bool {
	switch {
	case a.U1 != b.U1:
		return a.U1 < b.U1
	case a.U2 != b.U2:
		return a.U2 < b.U2
	case a.V1 != b.V1:
		return a.V1 < b.V1
	default:
		return a.V2 < b.V2
	}
}

func (h *harness) record(cs *CaseReport, method, what string, got, want, eps, vsExact float64) {
	a := h.acc[method]
	err := math.Abs(got - want)
	a.comparisons++
	cs.Comparisons++
	a.sumAbsErr += err
	if err > a.maxAbsErr {
		a.maxAbsErr = err
	}
	if err > cs.MaxAbsErr {
		cs.MaxAbsErr = err
	}
	if vsExact > a.maxVsExact {
		a.maxVsExact = vsExact
	}
	if err > eps {
		a.violations++
		cs.Violations++
		h.rep.Violations++
		h.detail("%s/%s: %s: |%.6g - %.6g| = %.3g exceeds acceptance half-width %.3g",
			cs.Name, method, what, got, want, err, eps)
	}
}

// missViolation records a candidate-coverage failure (a heavy butterfly
// absent from C_MB) as an interval violation of the OLS method.
func (h *harness) missViolation(cs *CaseReport, method string, b butterfly.Butterfly, p float64) {
	a := h.acc[method]
	a.comparisons++
	cs.Comparisons++
	a.violations++
	cs.Violations++
	h.rep.Violations++
	if p > a.maxAbsErr {
		a.maxAbsErr = p
	}
	if p > a.maxVsExact {
		a.maxVsExact = p
	}
	a.sumAbsErr += p
	h.detail("%s/%s: heavy butterfly %v (exact P=%.4g >= %.2g) missing from the candidate set after %d preparing trials",
		cs.Name, method, b, p, h.cfg.MissThreshold, h.cfg.PrepTrials)
}

func (h *harness) detail(format string, args ...any) {
	if len(h.rep.Details) < maxDetails {
		h.rep.Details = append(h.rep.Details, fmt.Sprintf(format, args...))
	}
}

func (h *harness) metaViolation(cs *CaseReport, format string, args ...any) {
	cs.Metamorphic++
	h.rep.MetamorphicViolations++
	h.detail("metamorphic: "+format, args...)
}

func (h *harness) summarize() {
	for _, m := range methodOrder {
		a := h.acc[m]
		ms := MethodSummary{
			Method:           m,
			Comparisons:      a.comparisons,
			Violations:       a.violations,
			MaxAbsErr:        a.maxAbsErr,
			MaxAbsErrVsExact: a.maxVsExact,
			Coverage:         1,
			Trials:           h.cfg.Trials,
		}
		if a.comparisons > 0 {
			ms.MeanAbsErr = a.sumAbsErr / float64(a.comparisons)
			ms.Coverage = 1 - float64(a.violations)/float64(a.comparisons)
		}
		if m == "ols-kl" {
			// The KL estimate moves by Pr[E(B_i)]·S_i per unit of its
			// underlying proportion; quote the trial count for the worst
			// scale seen in this corpus.
			if a.maxKLScale > 0 {
				ms.TrialsToTolerance = interval.TrialsForHalfWidth(reportTolerance/a.maxKLScale, h.cfg.Alpha)
			}
		} else {
			ms.TrialsToTolerance = interval.TrialsForHalfWidth(reportTolerance, h.cfg.Alpha)
		}
		h.rep.Methods = append(h.rep.Methods, ms)
	}
	h.rep.Pass = h.rep.Violations <= h.cfg.FailureBudget && h.rep.MetamorphicViolations == 0 &&
		(h.rep.SelfHealing == nil || h.rep.SelfHealing.Healed)
}
