package main

// metricDef names one metric the benchmark emits. The two tables below
// are the single source of the names in BENCHMARK.json; smoke_test.go
// fails when the file and the tables disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are measured with tracing off, on every workload. The bounds
// follow what four sets of ten seeds showed on the sizing box (README.md,
// "Steadiness"): a bound is at least twice the widest quartile spread its
// metric had on any workload in any set, because the driver that gates
// later changes refuses a benchmark whose own spread exceeds its bound.
// Raw timings spread by 2 to 9 % in a quiet quarter of an hour and by up
// to 23 % in a noisy one, so they carry the 25 % cap of the benchmark
// contract; the 10 % the issue asked for is inside their noise here, and
// -compare counts pairs for a claim finer than a bound. The ratio spread
// by up to 7.4 %, memory by up to 5.9 %, allocations by up to 4.9 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stmts_per_s", "1/s", "higher", 0.25},
	{"norm_p50_ms", "ms", "lower", 0.25},
	{"prov_p50_ms", "ms", "lower", 0.25},
	{"prov_overhead_x", "x", "lower", 0.15},
	{"stmt_p90_ms", "ms", "lower", 0.25},
	{"result_mvalues_per_s", "M/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"allocs_per_stmt", "count", "lower", 0.10},
}

// perLayer come from the traced pass. A metric whose layer a workload
// does not touch reads 0 there (mem.* and spill.* off tpch_spill,
// server.* and session.* off wire_mixed).
var perLayer = []metricDef{
	{Name: "sql.parse_us.norm", Unit: "us", Better: "lower"},
	{Name: "sql.parse_us.prov", Unit: "us", Better: "lower"},
	{Name: "analyze.analyze_us.norm", Unit: "us", Better: "lower"},
	{Name: "analyze.analyze_us.prov", Unit: "us", Better: "lower"},
	{Name: "provrewrite.rewrite_us.norm", Unit: "us", Better: "lower"},
	{Name: "provrewrite.rewrite_us.prov", Unit: "us", Better: "lower"},
	{Name: "optimize.optimize_us.norm", Unit: "us", Better: "lower"},
	{Name: "optimize.optimize_us.prov", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us.norm", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us.prov", Unit: "us", Better: "lower"},
	{Name: "pipeline.compile_share", Unit: "share", Better: "lower"},
	{Name: "provrewrite.node_blowup_x", Unit: "x", Better: "lower"},
	{Name: "optimize.node_shrink_x", Unit: "x", Better: "lower"},
	{Name: "prov.row_blowup_x", Unit: "x", Better: "lower"},
	{Name: "prov.col_blowup_x", Unit: "x", Better: "lower"},
	{Name: "vexec.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.join_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.agg_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.setop_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.other_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.fallback_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.rows_scanned_per_row_out", Unit: "x", Better: "lower"},
	{Name: "perm.result_box_ms", Unit: "ms", Better: "lower"},
	{Name: "vexec.vec_speedup_x", Unit: "x", Better: "higher"},
	{Name: "optimize.opt_speedup_x", Unit: "x", Better: "higher"},
	{Name: "vexec.par_speedup_x", Unit: "x", Better: "higher"},
	{Name: "qcache.hit_rate", Unit: "share", Better: "higher"},
	{Name: "qcache.evictions_per_stmt", Unit: "count", Better: "lower"},
	{Name: "qcache.invalidations_per_write", Unit: "count", Better: "lower"},
	{Name: "qcache.warm_over_cold_x", Unit: "x", Better: "lower"},
	{Name: "storage.snapshot_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "catalog.stats_rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.load_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mem.peak_reserved_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.denials_per_round", Unit: "count", Better: "lower"},
	{Name: "spill.mb_per_round", Unit: "MB", Better: "lower"},
	{Name: "spill.events_per_round", Unit: "count", Better: "lower"},
	{Name: "spill.cost_x", Unit: "x", Better: "lower"},
	{Name: "wire.encode_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_value", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_value", Unit: "B", Better: "lower"},
	{Name: "wire.max_frame_mb", Unit: "MB", Better: "lower"},
	{Name: "server.rtt_floor_us", Unit: "us", Better: "lower"},
	{Name: "server.wire_overhead_short_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wire_overhead_wide_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "permclient.retries", Unit: "count", Better: "lower"},
	{Name: "session.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_x", Unit: "x", Better: "lower"},
	{Name: "obs.analyze_overhead_x", Unit: "x", Better: "lower"},
	{Name: "obs.timeout_armed_overhead_x", Unit: "x", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_x", Unit: "x", Better: "lower"},
}

// metric is one measured value. N is the number of samples behind it
// (0 for counts and ratios of counts).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

// put stores a value under a name from the tables above; a name missing
// from both is a bug in the caller.
func (m metrics) put(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = metric{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("bench: metric " + name + " is not in the metric table")
}
