package telemetry

// Metrics is a merged point-in-time snapshot of the registry. It is a
// plain value: safe to copy, compare, and marshal (the CLI JSON output
// and the /debug/vars expvar both serialize it directly).
type Metrics struct {
	// Workers is the shard count of the most recent run (1 for
	// sequential runs).
	Workers int `json:"workers"`

	// Trials counts executed sampling-phase trials; TrialHits the subset
	// that observed at least one maximum butterfly / live candidate.
	Trials    int64 `json:"trials"`
	TrialHits int64 `json:"trial_hits"`
	// PrepTrials counts OLS preparing-phase trials.
	PrepTrials int64 `json:"prep_trials"`

	// EdgesScanned/EdgesPruned split the OS kernel's per-trial edge scan;
	// CandScanned/CandPruned split the OLS sampling-phase candidate scan.
	EdgesScanned int64 `json:"edges_scanned"`
	EdgesPruned  int64 `json:"edges_pruned"`
	CandScanned  int64 `json:"cand_scanned"`
	CandPruned   int64 `json:"cand_pruned"`
	// PrefixFallbacks is always 0: the OS kernel has no edge-prefix
	// boundary to fall back past. The field stays for readers that still
	// name it.
	PrefixFallbacks int64 `json:"prefix_fallbacks"`

	// Candidates counts butterflies promoted into C_MB.
	Candidates int64 `json:"candidates"`

	// Supervisor health.
	Audits      int64 `json:"audits"`
	AuditMisses int64 `json:"audit_misses"`
	Escalations int64 `json:"escalations"`

	// Checkpoint store health.
	CheckpointSaves   int64 `json:"checkpoint_saves"`
	CheckpointRetries int64 `json:"checkpoint_retries"`

	// Distributed-worker health: lease-loop failures split by kind and
	// coordinator reconnections after an unreachable spell.
	DistLeaseErrors    int64 `json:"dist_lease_errors"`
	DistCompleteErrors int64 `json:"dist_complete_errors"`
	DistGraphErrors    int64 `json:"dist_graph_errors"`
	DistExecErrors     int64 `json:"dist_exec_errors"`
	DistReconnects     int64 `json:"dist_reconnects"`

	// EventsDropped counts events discarded because the observer ring
	// was full (filled in by the Observer wrapper, not the registry).
	EventsDropped int64 `json:"events_dropped"`

	// LeaderP / LeaderHalfWidth are the running leading estimate and its
	// Agresti-Coull half-width.
	LeaderP         float64 `json:"leader_p"`
	LeaderHalfWidth float64 `json:"leader_half_width"`

	// TrialNs is the per-trial latency histogram (power-of-two ns
	// buckets, credited per batch mean).
	TrialNs HistogramSnapshot `json:"trial_ns"`
}

// HistogramSnapshot is a merged histogram: Counts[i] trials landed in
// bucket i (upper bound HistBucketBound(i)), SumNs is total measured
// time, Count total trials recorded.
type HistogramSnapshot struct {
	Counts []int64 `json:"counts"`
	SumNs  int64   `json:"sum_ns"`
	Count  int64   `json:"count"`
}

// EdgePruneRate is the fraction of edge positions the OS kernel skipped.
func (m Metrics) EdgePruneRate() float64 {
	tot := m.EdgesScanned + m.EdgesPruned
	if tot == 0 {
		return 0
	}
	return float64(m.EdgesPruned) / float64(tot)
}

// CandPruneRate is the fraction of candidate positions the OLS sampling
// phase skipped via the early break.
func (m Metrics) CandPruneRate() float64 {
	tot := m.CandScanned + m.CandPruned
	if tot == 0 {
		return 0
	}
	return float64(m.CandPruned) / float64(tot)
}

// MeanTrialNs is the mean measured per-trial latency in nanoseconds.
func (m Metrics) MeanTrialNs() float64 {
	if m.TrialNs.Count == 0 {
		return 0
	}
	return float64(m.TrialNs.SumNs) / float64(m.TrialNs.Count)
}
