package main

// metricDef is one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none. The table
// mirrors BENCHMARK.json, which TestBenchmarkJSONMatchesTables checks.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the library or the daemon sees.
// Every workload reports every one of them: a "query" is one library
// search on the warm library workloads, timed from the graph load on
// cold-protein, and one daemon job, from submit to result in hand, on
// serve-abide. The timing bounds are the widest
// allowed because on the 2-vCPU reference machine even the fastest query
// of a run drifts by 6-8% between runs minutes apart (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the trace run's metrics, named <layer>.<quantity>.
// query.tail_ms is the end-to-end tail latency, demoted here because its
// run-to-run spread came within a hair of the widest allowed bound.
var perLayer = []metricDef{
	{Name: "query.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "bigraph.load_s", Unit: "s", Better: "lower"},
	{Name: "bigraph.load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "core.prep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prep_ns_per_trial", Unit: "ns", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.optimized_ms", Unit: "ms", Better: "lower"},
	{Name: "core.optimized_ns_per_trial", Unit: "ns", Better: "lower"},
	{Name: "core.optimized_bytes_per_trial", Unit: "B", Better: "lower"},
	{Name: "core.kl_ms", Unit: "ms", Better: "lower"},
	{Name: "core.kl_trials_executed", Unit: "count", Better: "lower"},
	{Name: "core.os_ns_per_trial", Unit: "ns", Better: "lower"},
	{Name: "core.os_par_ns_per_trial", Unit: "ns", Better: "lower"},
	{Name: "core.par_speedup", Unit: "x", Better: "higher"},
	{Name: "core.edges_scanned_per_trial", Unit: "count", Better: "lower"},
	{Name: "core.edges_pruned_fraction", Unit: "ratio", Better: "higher"},
	{Name: "core.prefix_fallbacks_per_trial", Unit: "ratio", Better: "lower"},
	{Name: "core.anchored_ns_per_trial", Unit: "ns", Better: "lower"},
	{Name: "core.anchored_allocs_per_trial", Unit: "count", Better: "lower"},
	{Name: "core.anchored_bytes_per_trial", Unit: "B", Better: "lower"},
	{Name: "mpmb.search_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.observer_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.state_bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "dist.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "dist.requests_per_query", Unit: "count", Better: "lower"},
	{Name: "dist.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricUnit looks a metric's unit up in either table.
func metricUnit(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
