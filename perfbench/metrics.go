package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches keeps them in
// step); README.md explains each one.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, reported on every workload.
// An op is one consensus instance: on live-capacity an instance proposed
// on all 5 processes and decided by all of them, on sim-approx one
// verified simulated run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run, reported on every workload. A
// layer that is not on a workload's path reads 0 there (the service and
// wire layers on sim-approx, the simulator and node-callback layers on
// live-capacity).
var perLayer = []metricDef{
	{"service.propose_us_p50", "us", "lower"},
	{"service.propose_us_p99", "us", "lower"},
	{"service.elapsed_ms_p50", "ms", "lower"},
	{"service.frames_per_inst", "count", "lower"},
	{"service.bytes_per_inst", "bytes", "lower"},
	{"service.conn_writes_per_inst", "count", "lower"},
	{"service.conn_bytes_per_write", "bytes", "higher"},
	{"service.conn_write_ms_per_inst", "ms", "lower"},
	{"service.conn_reads_per_inst", "count", "lower"},
	{"service.queue_depth_max", "frames", "lower"},
	{"service.retries", "count", "lower"},
	{"service.inflight_max", "count", "lower"},

	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.header_share", "ratio", "lower"},

	{"core.gamma_solves_per_op", "count", "lower"},
	{"core.gamma_cache_hits_per_op", "count", "higher"},
	{"core.gamma_prefix_hits_per_op", "count", "higher"},
	{"core.gamma_round_hits_per_op", "count", "higher"},
	{"core.gamma_reuse_rate", "ratio", "higher"},
	{"core.round_step_ms_per_op", "ms", "lower"},
	{"core.msg_step_us", "us", "lower"},

	{"sim.msgs_per_op", "count", "lower"},
	{"sim.rounds_per_op", "count", "lower"},
	{"sim.self_ms_per_op", "ms", "lower"},
	{"sim.parallel_ms_per_op", "ms", "lower"},

	{"safearea.point_us_lift", "us", "lower"},
	{"safearea.point_us_lexmin", "us", "lower"},
	{"tverberg.lift_us", "us", "lower"},
	{"hull.intersection_us", "us", "lower"},
	{"hull.lexmin_us", "us", "lower"},
	{"lp.build_us", "us", "lower"},
	{"lp.solve_us.revised", "us", "lower"},
	{"lp.solve_us.dense", "us", "lower"},

	{"goruntime.allocs_per_op", "count", "lower"},
	{"goruntime.alloc_mb_per_op", "MB", "lower"},
	{"goruntime.gc_cpu_share", "ratio", "lower"},
	{"goruntime.sched_wait_us_p99", "us", "lower"},

	{"bench.gen_lag_ms_p99", "ms", "lower"},
	{"bench.check_us_per_op", "us", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.fail_ratio", "ratio", "lower"},
}

// zeroLayers returns a per-layer metric map with every metric at 0, for a
// traced run to fill in the layers its workload reaches.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
