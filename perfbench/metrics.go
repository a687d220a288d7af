package main

import "repro/internal/programs"

// metricDef describes one reported metric. Bound is the share of the
// base value by which the metric may worsen before compare flags it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics every workload reports with tracing off,
// and BENCHMARK.json's end_to_end list (TestBenchmarkJSONMatches keeps
// the two equal). An operation is one compilation (compile), one engine
// run of one benchmark or one lazy Eval (execute), or one HTTP request
// (serve); a round is one pass over the workload's fixed work.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// named are the workload-specific end-to-end metrics, printed and
// written to the ledger (and compared) but not listed in
// BENCHMARK.json, whose end_to_end metrics every workload reports.
var named = map[string][]metricDef{
	"compile": {
		{"compile_ms_p50", "ms", "lower", 0.25},
		{"compile_ms_p90", "ms", "lower", 0.25},
		{"compile_per_s", "1/s", "higher", 0.25},
	},
	"execute": {
		{"vm_suite_ms", "ms", "lower", 0.25},
		{"distvm_suite_ms", "ms", "lower", 0.25},
		{"native_suite_ms", "ms", "lower", 0.25},
		{"lazy_eval_ms", "ms", "lower", 0.25},
	},
	"serve": {
		{"serve_hit_ms_p50", "ms", "lower", 0.25},
		{"serve_hit_ms_p99", "ms", "lower", 0.25},
		{"serve_miss_ms_p50", "ms", "lower", 0.25},
		{"serve_miss_ms_p90", "ms", "lower", 0.25},
		{"serve_req_per_s", "1/s", "higher", 0.25},
	},
}

// errorRate is reported on every workload; any increase is flagged.
var errorRate = metricDef{"error_rate", "ratio", "lower", 0}

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json's order. Times are per round unless named otherwise.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, p := range phases {
		add(p.metric, "ms", "lower")
	}
	add("compile.unattributed_pct", "%", "lower")
	for _, c := range compileCells() {
		add("compile."+c.name+"_ms", "ms", "lower")
	}
	for _, n := range []string{"core.contracted_arrays", "core.loop_nests", "absint.proven_sites", "mhp.ordered_pairs"} {
		add(n, "count", "higher")
	}
	for _, b := range programs.All() {
		add("vm."+b.Name+"_ms", "ms", "lower")
	}
	add("vm.footprint_mb", "MB", "lower")
	for _, b := range programs.All() {
		add("distvm."+b.Name+"_ms", "ms", "lower")
	}
	add("distvm.slowdown_vs_vm", "ratio", "lower")
	for _, b := range programs.All() {
		add("backend."+b.Name+"_ms", "ms", "lower")
	}
	add("backend.run_wall_ms", "ms", "lower")
	add("backend.run_compute_ms", "ms", "lower")
	add("backend.build_ms", "ms", "lower")
	add("lazy.eval_ms", "ms", "lower")
	add("lazy.cache_hits", "count", "higher")
	add("lazy.recompiles", "count", "lower")
	add("store.mem_hit_ms_p50", "ms", "lower")
	add("store.disk_hit_ms_p50", "ms", "lower")
	add("store.peer_hit_ms_p50", "ms", "lower")
	for _, n := range []string{"store.mem_hits", "store.disk_hits", "store.peer_hits"} {
		add(n, "count", "higher")
	}
	add("store.compiles", "count", "lower")
	add("store.duplicate_compiles", "count", "lower")
	add("store.hit_ratio", "ratio", "higher")
	add("svc.run_ms_p50", "ms", "lower")
	add("svc.rejected", "count", "lower")
	add("peer.failed_calls", "count", "lower")
	add("peer.breaker_trips", "count", "lower")
	for _, w := range workloadNames {
		add("trace."+w+"_overhead_pct", "%", "lower")
	}
	add("trace.spans", "count", "higher")
	return d
}()

// layerNotes explain how a per-layer metric is made, printed with it.
var layerNotes = map[string]string{
	"distvm.slowdown_vs_vm":    "base: vm.Run on the same p=2 LIR, timed once in set-up",
	"compile.unattributed_pct": "compile wall time no phase span covers",
	"backend.build_ms":         "cold artifact store, warm Go build cache, in set-up",
}
