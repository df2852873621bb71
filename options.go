package mpmb

import (
	"fmt"
	"math"
	"time"
)

// Method selects an MPMB algorithm for Search.
type Method string

// The available search methods.
const (
	// MethodExact enumerates all possible worlds (≤ 24 edges).
	MethodExact Method = "exact"
	// MethodMCVP is the Monte-Carlo + vertex-priority baseline.
	MethodMCVP Method = "mc-vp"
	// MethodOS is Ordering Sampling.
	MethodOS Method = "os"
	// MethodOLSKL is Ordering-Listing Sampling with Karp-Luby estimation.
	MethodOLSKL Method = "ols-kl"
	// MethodOLS is Ordering-Listing Sampling with the optimized
	// estimator — the paper's best configuration and the default.
	MethodOLS Method = "ols"
)

// Methods lists every valid Method value.
var Methods = []Method{MethodExact, MethodMCVP, MethodOS, MethodOLSKL, MethodOLS}

// Options configures a search. DefaultOptions matches the paper's
// experimental setup.
type Options struct {
	// Method picks the algorithm for Search. Empty means MethodOLS.
	Method Method
	// Trials is the sampling trial count N: the number of sampled worlds
	// for MC-VP and OS, N_op for OLS, and the Equation 8 base for OLS-KL.
	Trials int
	// PrepTrials is the OLS preparing-phase trial count N_os.
	PrepTrials int
	// Seed fixes all randomness; identical options give identical results.
	Seed uint64
	// Mu is the target probability used to size Karp-Luby trial counts
	// via Equation 8 (OLS-KL only). 0 disables dynamic sizing: every
	// candidate then runs exactly Trials trials.
	Mu float64
	// Workers distributes the sampling trials over that many goroutines
	// (os, ols, ols-kl only; 0 or 1 keeps the run sequential). Results are
	// bit-identical to the sequential run with the same options — each
	// trial's random stream derives from (Seed, trial index), so only
	// wall-clock time changes. Exact and mc-vp reject Workers > 0.
	Workers int
	// Resume continues a cancelled run from the Checkpoint attached to its
	// partial Result (see SearchContext). The options must match the
	// checkpointed run; the finished result is bit-identical to an
	// uninterrupted one. Supported by mc-vp, os, ols and ols-kl.
	Resume *Checkpoint
	// Observer, if non-nil, instruments the run: counters, gauges and the
	// trial-latency histogram accumulate into it (snapshot any time via
	// Observer.Metrics, or at run end via Result.Metrics) and typed
	// events stream to its OnEvent callback. Nil disables telemetry at
	// zero cost. Observation never perturbs the result: the same options
	// with and without an Observer return bit-identical estimates.
	Observer *Observer
	// Executor, if non-nil, hands the sampling phase's trial units to an
	// explicit execution backend instead of the in-process worker pool —
	// typically a distributed fan-out (a dist coordinator's executor, as
	// wired by mpmb-search -dist-listen and mpmb-serve -dist). Because
	// every trial unit's random stream derives from (Seed, unit index),
	// any conforming executor returns a Result bit-identical to the
	// sequential run with the same options. Supported by os, ols and
	// ols-kl, without adaptive options; exact and mc-vp reject it.
	Executor Executor

	// The adaptive options below route the run through the supervisor
	// (see Result.Adaptive): setting any of AuditEvery, Epsilon, Deadline
	// or StallTimeout turns a plain search into a self-healing adaptive
	// run. None of them apply to the exact method.

	// AuditEvery interleaves one full Ordering Sampling audit trial after
	// every AuditEvery OLS sampling trials (and tops the schedule up before
	// declaring the run complete). An audit that finds a maximum butterfly
	// outside the candidate set heals the run: the preparing phase re-runs
	// with a doubled trial target and sampling restarts over the wider
	// candidate list. OLS methods only; 0 disables audits.
	AuditEvery int
	// MaxEscalations bounds audit-triggered escalations; when one more
	// would be needed the run falls down the degradation ladder to OS
	// instead (recorded in Result.Adaptive.Transitions). 0 means the
	// supervisor default (2).
	MaxEscalations int
	// Epsilon > 0 stops the run early once the leader estimate's
	// normal-approximation half-width (at 99% confidence) drops to Epsilon
	// or below — accuracy-aware stopping. Proportion methods only (mc-vp,
	// os, ols).
	Epsilon float64
	// Deadline, when non-zero, stops the run at the first trial boundary
	// at or past it, returning the partial-but-honest prefix with
	// Result.Adaptive.StopReason == StopDeadline.
	Deadline time.Time
	// StallTimeout > 0 arms a watchdog: if the run goes that long without
	// making progress, the search returns a *StallError (errors.Is
	// ErrStalled) instead of hanging.
	StallTimeout time.Duration

	// Query selects a query variant — vertex- or edge-anchored search,
	// per-community top-k, adaptive prep sizing. Nil (or the zero Query)
	// is the default global MPMB query. See the Query type for the
	// variant semantics and the option combinations each supports.
	Query *Query
}

// adaptive reports whether any option routes the run through the
// supervisor. MaxEscalations alone does not: it only modifies AuditEvery.
func (o Options) adaptive() bool {
	return o.AuditEvery > 0 || o.Epsilon > 0 || !o.Deadline.IsZero() || o.StallTimeout > 0
}

// DefaultOptions returns the paper's Section VIII-B defaults: 2×10⁴
// sampling trials (the Theorem IV.1 bound for μ=0.05, ε=δ=0.1) and 100
// preparing trials.
func DefaultOptions() Options {
	return Options{
		Method:     MethodOLS,
		Trials:     20000,
		PrepTrials: 100,
		Mu:         0.05,
	}
}

// OptionError reports which Options field made a search configuration
// invalid. Every entry point (Search, SearchContext, the Searcher, and
// Options.Validate) returns one for a bad configuration; match with
// errors.As to recover the field name —
// the CLIs use it to point at the offending flag.
type OptionError struct {
	// Field is the Options field name, e.g. "Trials" or "Epsilon".
	Field string
	// Value is the rejected value.
	Value any
	// Reason explains the constraint the value violated.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("mpmb: invalid Options.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options as Search would see them (an empty Method
// means MethodOLS). It returns nil or a *OptionError naming the
// offending field. Every search entry point performs this validation
// itself; Validate is for callers that want to fail fast — flag
// parsing, config loading — before paying for a graph.
func (o Options) Validate() error {
	m := o.Method
	if m == "" {
		m = MethodOLS
	}
	return o.validateFor(m)
}

// validateFor checks the options against the method that will actually
// run: o.Method with the MethodOLS default resolved.
func (o Options) validateFor(m Method) error {
	switch m {
	case MethodExact, MethodMCVP, MethodOS, MethodOLS, MethodOLSKL, Method(""):
	default:
		return &OptionError{Field: "Method", Value: m, Reason: "unknown method"}
	}
	if o.Trials < 0 {
		return &OptionError{Field: "Trials", Value: o.Trials, Reason: "trial count cannot be negative"}
	}
	if o.PrepTrials < 0 {
		return &OptionError{Field: "PrepTrials", Value: o.PrepTrials, Reason: "trial count cannot be negative"}
	}
	if o.Mu < 0 || o.Mu > 1 || math.IsNaN(o.Mu) {
		return &OptionError{Field: "Mu", Value: o.Mu, Reason: "outside [0,1]"}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Value: o.Workers, Reason: "worker count cannot be negative"}
	}
	if o.AuditEvery < 0 {
		return &OptionError{Field: "AuditEvery", Value: o.AuditEvery, Reason: "audit interval cannot be negative"}
	}
	if o.MaxEscalations < 0 {
		return &OptionError{Field: "MaxEscalations", Value: o.MaxEscalations, Reason: "escalation budget cannot be negative"}
	}
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 {
		return &OptionError{Field: "Epsilon", Value: o.Epsilon, Reason: "must be >= 0"}
	}
	if o.StallTimeout < 0 {
		return &OptionError{Field: "StallTimeout", Value: o.StallTimeout, Reason: "timeout cannot be negative"}
	}
	if m == MethodExact && o.adaptive() {
		f, v := o.adaptiveField()
		return &OptionError{Field: f, Value: v, Reason: "adaptive options (AuditEvery/Epsilon/Deadline/StallTimeout) do not apply to the exact method"}
	}
	if o.AuditEvery > 0 {
		switch m {
		case MethodOLS, MethodOLSKL, Method(""):
		default:
			return &OptionError{Field: "AuditEvery", Value: o.AuditEvery, Reason: fmt.Sprintf("only applies to the OLS methods (method %q has no candidate truncation to audit)", m)}
		}
	}
	if o.Epsilon > 0 && m == MethodOLSKL {
		return &OptionError{Field: "Epsilon", Value: o.Epsilon, Reason: "the stopping rule needs per-trial proportions; ols-kl estimates are Karp-Luby transforms (use ols, os or mc-vp)"}
	}
	switch m {
	case MethodExact, MethodMCVP:
		if o.Workers > 0 {
			return &OptionError{Field: "Workers", Value: o.Workers, Reason: fmt.Sprintf("method %q does not support parallel execution; use os, ols or ols-kl", m)}
		}
		if o.Executor != nil {
			return &OptionError{Field: "Executor", Value: o.Executor, Reason: fmt.Sprintf("method %q does not support executor fan-out; use os, ols or ols-kl", m)}
		}
	}
	if o.Executor != nil && o.adaptive() {
		f, v := o.adaptiveField()
		return &OptionError{Field: f, Value: v, Reason: "adaptive supervision reshapes the trial schedule mid-run and cannot ride an explicit Executor; drop the adaptive options or the Executor"}
	}
	if o.Query != nil {
		if err := o.Query.validate(o, m); err != nil {
			return err
		}
	}
	if m == MethodExact {
		if o.Resume != nil {
			return &OptionError{Field: "Resume", Value: o.Resume, Reason: "the exact method cannot resume from a checkpoint; re-run the enumeration"}
		}
		return nil // trial counts unused
	}
	if o.Trials == 0 {
		return &OptionError{Field: "Trials", Value: o.Trials, Reason: "must be positive (use DefaultOptions for the paper setup)"}
	}
	switch m {
	case MethodOLS, MethodOLSKL, Method(""):
		if o.PrepTrials == 0 {
			return &OptionError{Field: "PrepTrials", Value: o.PrepTrials, Reason: "OLS methods need PrepTrials > 0"}
		}
	}
	return nil
}

// adaptiveField names the first set adaptive option, for error
// attribution when the combination (not one value) is invalid.
func (o Options) adaptiveField() (string, any) {
	switch {
	case o.AuditEvery > 0:
		return "AuditEvery", o.AuditEvery
	case o.Epsilon > 0:
		return "Epsilon", o.Epsilon
	case !o.Deadline.IsZero():
		return "Deadline", o.Deadline
	default:
		return "StallTimeout", o.StallTimeout
	}
}
