package telemetry

import (
	"fmt"
	"io"
	"math"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Counter values are monotone across sequential
// runs sharing one registry, so scrapes behave like ordinary process
// counters.
func WritePrometheus(w io.Writer, m Metrics) error {
	counters := []struct {
		name, help string
		value      int64
	}{
		{"mpmb_trials_total", "Sampling-phase trials executed.", m.Trials},
		{"mpmb_trial_hits_total", "Trials observing at least one maximum butterfly.", m.TrialHits},
		{"mpmb_prep_trials_total", "OLS preparing-phase trials executed.", m.PrepTrials},
		{"mpmb_edges_scanned_total", "Edge positions scanned by the OS kernel.", m.EdgesScanned},
		{"mpmb_edges_pruned_total", "Edge positions skipped by the descending-weight prune.", m.EdgesPruned},
		{"mpmb_candidates_scanned_total", "Candidate positions scanned by the OLS sampling phase.", m.CandScanned},
		{"mpmb_candidates_pruned_total", "Candidate positions skipped by the OLS early break.", m.CandPruned},
		{"mpmb_candidates_promoted_total", "Butterflies promoted into the candidate set C_MB.", m.Candidates},
		{"mpmb_audits_total", "Supervisor coverage audits run.", m.Audits},
		{"mpmb_audit_misses_total", "Maximum butterflies audits found missing from C_MB.", m.AuditMisses},
		{"mpmb_escalations_total", "Audit-triggered prep escalations.", m.Escalations},
		{"mpmb_checkpoint_saves_total", "Successful checkpoint saves.", m.CheckpointSaves},
		{"mpmb_checkpoint_retries_total", "Retried checkpoint save/load attempts.", m.CheckpointRetries},
		{"mpmb_events_dropped_total", "Observer events dropped because the ring was full.", m.EventsDropped},
		{"mpmb_dist_worker_reconnects_total", "Coordinator connections re-established after an unreachable spell.", m.DistReconnects},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.value); err != nil {
			return err
		}
	}

	const distErrs = "mpmb_dist_worker_errors_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Distributed worker lease-loop failures by kind.\n# TYPE %s counter\n", distErrs, distErrs); err != nil {
		return err
	}
	for _, kv := range []struct {
		kind  string
		value int64
	}{
		{"lease", m.DistLeaseErrors},
		{"complete", m.DistCompleteErrors},
		{"graph", m.DistGraphErrors},
		{"exec", m.DistExecErrors},
	} {
		if _, err := fmt.Fprintf(w, "%s{kind=%q} %d\n", distErrs, kv.kind, kv.value); err != nil {
			return err
		}
	}

	gauges := []struct {
		name, help string
		value      float64
	}{
		{"mpmb_workers", "Worker shard count of the most recent run.", float64(m.Workers)},
		{"mpmb_leader_p", "Running leading estimate of the maximum-butterfly probability.", m.LeaderP},
		{"mpmb_leader_half_width", "Agresti-Coull half-width of the leading estimate.", m.LeaderHalfWidth},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n",
			g.name, g.help, g.name, g.name, g.value); err != nil {
			return err
		}
	}

	const hist = "mpmb_trial_duration_nanoseconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Per-trial latency (credited per flushed batch mean).\n# TYPE %s histogram\n", hist, hist); err != nil {
		return err
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		if i < len(m.TrialNs.Counts) {
			cum += m.TrialNs.Counts[i]
		}
		bound := HistBucketBound(i)
		le := "+Inf"
		if bound != math.MaxInt64 {
			le = fmt.Sprintf("%d", bound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", hist, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", hist, m.TrialNs.SumNs, hist, m.TrialNs.Count)
	return err
}
