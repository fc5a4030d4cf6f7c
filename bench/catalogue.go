package main

// metric names one reported number and its unit. The two lists below are
// the benchmark's catalogue; BENCHMARK.json repeats them, and the tests
// keep the two equal.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the library or the job server sees,
// measured with tracing off.
var endToEndMetrics = []metric{
	{"op_s.p50", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb_per_op", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics come from the traced run. Each is named after the
// module (layer) whose public functions it times or counts.
var perLayerMetrics = []metric{
	{"relation.load_s.p50", "s"},
	{"relation.read_csv_mb_per_s", "MiB/s"},
	{"relation.from_strings_s", "s"},
	{"relation.self_frac", "ratio"},

	{"order.check_ocd_uncached_us.p50", "us"},
	{"order.check_ocd_cached_us.p50", "us"},
	{"order.check_od_uncached_us.p50", "us"},
	{"order.sorted_index_us.p50", "us"},
	{"order.alloc_kb_per_check", "KiB"},
	{"order.index_cache_hit_ratio", "ratio"},
	{"order.self_frac", "ratio"},

	{"core.discover_s.p50", "s"},
	{"core.checks", "count"},
	{"core.candidates", "count"},
	{"core.levels", "count"},
	{"core.prunes", "count"},
	{"core.checks_per_s", "1/s"},
	{"core.reduction_s", "s"},
	{"core.level_max_s", "s"},
	{"core.barrier_idle_frac", "ratio"},
	{"core.parallel_speedup", "ratio"},
	{"core.self_frac", "ratio"},

	{"spill.evictions_per_job", "count"},
	{"spill.reloads_per_job", "count"},
	{"spill.reload_ratio", "ratio"},

	{"checkpoint.writes_per_job", "count"},
	{"checkpoint.snapshot_kb", "KiB"},
	{"checkpoint.load_us", "us"},

	{"jobs.submit_ms.p50", "ms"},
	{"jobs.queue_wait_ms.p50", "ms"},
	{"jobs.run_ms.p50", "ms"},
	{"jobs.result_ms.p50", "ms"},
	{"jobs.delete_ms.p50", "ms"},
	{"jobs.state_events_per_job", "count"},
	{"jobs.durable_writes_per_job", "count"},
	{"jobs.rejected_frac", "ratio"},
	{"jobs.self_frac", "ratio"},

	{"obs.trace_overhead_frac", "ratio"},
	{"obs.progress_events_per_job", "count"},
	{"obs.job_trace_kb", "KiB"},
}
