package main

// metricDef declares one metric as BENCHMARK.json does; TestMetricsMatchDeclaration
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Bound is the share of the base median by which a metric may
// get worse before a change counts as a regression.
var endToEnd = []metricDef{
	{"accesses_per_s", "acc/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, grouped by the module they
// measure. ns/ms/s metrics are host time; rates and counts are simulated.
var perLayer = []metricDef{
	{"trace.next_block_ns_per_acc", "ns", "lower", 0},
	{"trace.drain_ns_per_acc", "ns", "lower", 0},
	{"workloads.build_s", "s", "lower", 0},
	{"sim.new_ms", "ms", "lower", 0},
	{"sim.step_ns_per_acc", "ns", "lower", 0},
	{"sim.step_ns_p50", "ns", "lower", 0},
	{"sim.step_ns_p99", "ns", "lower", 0},
	{"sim.step_l1hit_ns_p50", "ns", "lower", 0},
	{"sim.step_miss_ns_p50", "ns", "lower", 0},
	{"sim.allocs_per_acc", "count", "lower", 0},
	{"sim.glue_ns_per_acc", "ns", "lower", 0},
	{"sim.l1_miss_rate", "ratio", "lower", 0},
	{"sim.offchip_per_acc", "count", "lower", 0},
	{"sim.bypass_rate", "ratio", "higher", 0},
	{"sim.ipc", "ratio", "higher", 0},
	{"cache.l1.probe_ns", "ns", "lower", 0},
	{"cache.l2.probe_ns", "ns", "lower", 0},
	{"cache.llc.probe_ns", "ns", "lower", 0},
	{"cache.probes_per_acc", "count", "lower", 0},
	{"cache.writeback_ns", "ns", "lower", 0},
	{"cache.writebacks_per_acc", "count", "lower", 0},
	{"cache.ns_per_acc", "ns", "lower", 0},
	{"cache.l2_miss_rate", "ratio", "lower", 0},
	{"cache.llc_miss_rate", "ratio", "lower", 0},
	{"secmem.ctr_access_ns", "ns", "lower", 0},
	{"secmem.ctr_accesses_per_acc", "count", "lower", 0},
	{"secmem.data_dram_ns", "ns", "lower", 0},
	{"secmem.mac_access_ns", "ns", "lower", 0},
	{"secmem.wasted_fetch_ns", "ns", "lower", 0},
	{"secmem.writeback_ns", "ns", "lower", 0},
	{"secmem.ns_per_acc", "ns", "lower", 0},
	{"secmem.ctr_miss_rate", "ratio", "lower", 0},
	{"secmem.mt_reads_per_ctr_miss", "count", "lower", 0},
	{"secmem.dram_row_hit_rate", "ratio", "higher", 0},
	{"secmem.reenc_lines_per_kacc", "count", "lower", 0},
	{"core.data_predict_ns", "ns", "lower", 0},
	{"core.data_learn_ns", "ns", "lower", 0},
	{"core.ctr_observe_ns", "ns", "lower", 0},
	{"core.ns_per_acc", "ns", "lower", 0},
	{"core.data_pred_accuracy", "ratio", "higher", 0},
	{"core.ctr_good_frac", "ratio", "higher", 0},
	{"integrity.path_nodes_ns", "ns", "lower", 0},
	{"runner.exec_s_p50", "s", "lower", 0},
	{"runner.exec_s_max", "s", "lower", 0},
	{"runner.queue_wait_s_p50", "s", "lower", 0},
	{"runner.worker_busy_frac", "ratio", "higher", 0},
	{"runner.cells_executed", "count", "lower", 0},
	{"runner.cells_memoised", "count", "higher", 0},
	{"runner.store_put_ms_p50", "ms", "lower", 0},
	{"runner.store_get_ms_p50", "ms", "lower", 0},
	{"coord.lease_ms_p50", "ms", "lower", 0},
	{"coord.lease_ms_max", "ms", "lower", 0},
	{"coord.result_ms_p50", "ms", "lower", 0},
	{"coord.campaign_s", "s", "lower", 0},
	{"coord.re_leases", "count", "lower", 0},
	{"bench.timer_overhead_ns", "ns", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.reconcile_err_pct", "%", "lower", 0},
}
