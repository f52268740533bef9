package main

// metricSpec declares one metric the benchmark reports. The two tables
// below are the benchmark's contract: BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesTables holds them equal).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// e2eMetrics are what a user of the system sees. Every workload reports
// every one of them; README.md defines each per workload.
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"terminal_slots_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_latency_p50_ms", "ms", "lower"},
	{"job_latency_p90_ms", "ms", "lower"},
	{"query_latency_p50_ms", "ms", "lower"},
	{"query_latency_p90_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// layerMetrics split a traced run by layer. A metric of a layer the
// workload does not exercise reads 0.
var layerMetrics = []metricSpec{
	{"stats.rng_ns_per_draw", "ns", "lower"},
	{"stats.event_gap_ns", "ns", "lower"},

	{"sim.setup_s", "s", "lower"},
	{"sim.slot_ns_per_terminal_slot", "ns", "lower"},
	{"sim.shard_run_max_s", "s", "lower"},
	{"sim.shard_skew", "ratio", "lower"},
	{"sim.events_per_terminal_slot", "ratio", "lower"},
	{"sim.allocs", "count", "lower"},
	{"sim.alloc_bytes", "bytes", "lower"},
	{"sim.merge_ms", "ms", "lower"},
	{"sim.checkpoint_encode_ms", "ms", "lower"},
	{"sim.checkpoint_bytes", "bytes", "lower"},
	{"sim.partial_encode_ms", "ms", "lower"},
	{"sim.partial_decode_ms", "ms", "lower"},
	{"sim.partial_bytes", "bytes", "lower"},

	{"locman.report_encode_ms", "ms", "lower"},

	{"core.optimize_ms", "ms", "lower"},

	{"jobs.queue_wait_ms.p50", "ms", "lower"},
	{"jobs.queue_wait_ms.p90", "ms", "lower"},
	{"jobs.run_ms.p50", "ms", "lower"},
	{"jobs.run_ms.p90", "ms", "lower"},
	{"jobs.journal_append_ms.p50", "ms", "lower"},
	{"jobs.journal_append_ms.p90", "ms", "lower"},
	{"jobs.journal_bytes_per_job", "bytes", "lower"},
	{"jobs.checkpoints_written", "count", "lower"},
	{"jobs.recover_ms", "ms", "lower"},
	{"jobs.replayed_records", "count", "lower"},

	{"server.submit_ms.p50", "ms", "lower"},
	{"server.submit_ms.p90", "ms", "lower"},
	{"server.result_lag_ms.p50", "ms", "lower"},
	{"server.result_lag_ms.p90", "ms", "lower"},
	{"server.stream_frames_per_job", "count", "lower"},

	{"cluster.lease_ms.p50", "ms", "lower"},
	{"cluster.lease_ms.p90", "ms", "lower"},
	{"cluster.leases_per_job", "count", "lower"},
	{"cluster.releases", "count", "lower"},
	{"cluster.coord_overhead_ms", "ms", "lower"},

	{"results.ingest_ms.p50", "ms", "lower"},
	{"results.ingest_ms.p90", "ms", "lower"},
	{"results.table_bytes", "bytes", "lower"},
	{"results.query_ms", "ms", "lower"},

	{"trace.untraced_jobs_per_s", "1/s", "higher"},
	{"trace.traced_jobs_per_s", "1/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

var metricByName = func() map[string]metricSpec {
	m := map[string]metricSpec{}
	for _, t := range [][]metricSpec{e2eMetrics, layerMetrics} {
		for _, s := range t {
			m[s.Name] = s
		}
	}
	return m
}()
