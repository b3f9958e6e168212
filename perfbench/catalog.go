package main

// Workload names, as BENCHMARK.json lists them.
const (
	wlSteady = "crowd-steady"
	wlDrift  = "crowd-drift"
)

// metricDef is one metric of the benchmark. End-to-end metrics carry the
// bound BENCHMARK.json fixes for them; per-layer metrics carry none. The
// table is the one source of names and units: the run refuses to emit a
// name it does not hold, and a test checks it against BENCHMARK.json. Every
// workload emits every metric of its mode.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"; end-to-end only
	bound  float64 // end-to-end only
	layer  string  // "" for end-to-end metrics
}

func (d metricDef) endToEnd() bool { return d.layer == "" }

var catalog = []metricDef{
	// End to end: what a requester, a crowd worker or an operator sees.
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.2},
	{name: "answer_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "assign_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "results_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "label_accuracy", unit: "ratio", better: "higher", bound: 0.2},
	{name: "success_frac", unit: "ratio", better: "higher", bound: 0.01},
	{name: "ingest_s", unit: "s", better: "lower", bound: 0.25},
	{name: "fit_s", unit: "s", better: "lower", bound: 0.25},
	{name: "plan_round_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.15},

	// The generator: the benchmark's own client.
	{name: "client.cpu_ms_per_req", unit: "ms", layer: "generator"},
	{name: "client.answer_p99_ms", unit: "ms", layer: "generator"},
	{name: "client.assign_p99_ms", unit: "ms", layer: "generator"},
	{name: "client.results_p90_ms", unit: "ms", layer: "generator"},
	{name: "net.answer_p50_ms", unit: "ms", layer: "generator"},
	{name: "net.assign_p50_ms", unit: "ms", layer: "generator"},

	// internal/serve: the HTTP gateway.
	{name: "serve.answer_p50_ms", unit: "ms", layer: "serve"},
	{name: "serve.answer_p99_ms", unit: "ms", layer: "serve"},
	{name: "serve.assign_p50_ms", unit: "ms", layer: "serve"},
	{name: "serve.assign_p99_ms", unit: "ms", layer: "serve"},
	{name: "serve.results_p50_ms", unit: "ms", layer: "serve"},
	{name: "serve.results_bytes", unit: "bytes", layer: "serve"},

	// service.go: answer intake under Service.mu.
	{name: "answer.submit.p99_ms", unit: "ms", layer: "service"},
	{name: "answer.submit.self_p99_ms", unit: "ms", layer: "service"},
	{name: "answer.learn.p50_ms", unit: "ms", layer: "service"},
	{name: "answer.learn.p99_ms", unit: "ms", layer: "service"},
	{name: "answer.dedup.p99_ms", unit: "ms", layer: "service"},

	// plan.go: lock-free planning and the locked fallback.
	{name: "plan.snapshot.p99_ms", unit: "ms", layer: "plan"},
	{name: "plan.compute.p50_ms", unit: "ms", layer: "plan"},
	{name: "plan.compute.p99_ms", unit: "ms", layer: "plan"},
	{name: "plan.write.p99_ms", unit: "ms", layer: "plan"},
	{name: "plan.lock_free_frac", unit: "ratio", layer: "plan"},
	{name: "plan.conflict_rate", unit: "ratio", layer: "plan"},
	{name: "plan.candidate_hit_rate", unit: "ratio", layer: "plan"},

	// background.go: the fit pipeline.
	{name: "fit.per_kanswer", unit: "1/kanswer", layer: "fit"},
	{name: "fit.redundant", unit: "count", layer: "fit"},
	{name: "fit.coalesced_per_kanswer", unit: "1/kanswer", layer: "fit"},
	{name: "fit.cycle.p50_ms", unit: "ms", layer: "fit"},
	{name: "fit.capture.p99_ms", unit: "ms", layer: "fit"},
	{name: "fit.rebuild.p50_ms", unit: "ms", layer: "fit"},
	{name: "fit.em.p50_ms", unit: "ms", layer: "fit"},
	{name: "fit.merge.p50_ms", unit: "ms", layer: "fit"},
	{name: "fit.merge.p99_ms", unit: "ms", layer: "fit"},
	{name: "fit.swap.p99_ms", unit: "ms", layer: "fit"},
	{name: "fit.busy_frac", unit: "ratio", layer: "fit"},
	{name: "fit.staleness_p50_ms", unit: "ms", layer: "fit"},

	// elastic.go + internal/shard: shards and live migration.
	{name: "migrate.count", unit: "count", layer: "elastic"},
	{name: "migrate.splits", unit: "count", layer: "elastic"},
	{name: "migrate.merges", unit: "count", layer: "elastic"},
	{name: "migrate.aborted", unit: "count", layer: "elastic"},
	{name: "shard.fit_ms", unit: "ms", layer: "elastic"},
	{name: "shard.split.rebuild_ms", unit: "ms", layer: "elastic"},
	{name: "shard.split.em_ms", unit: "ms", layer: "elastic"},
	{name: "late_rps", unit: "1/s", layer: "elastic"},
	{name: "shard.count_end", unit: "count", layer: "elastic"},
	{name: "shard.answer_imbalance", unit: "ratio", layer: "elastic"},

	// internal/core: the location-aware EM.
	{name: "core.learn_us_per_answer", unit: "us", layer: "core"},
	{name: "core.learn.p99_us", unit: "us", layer: "core"},
	{name: "core.em.iterations", unit: "count", layer: "core"},
	{name: "core.em.iter_ms", unit: "ms", layer: "core"},
	{name: "service.fit_overhead_frac", unit: "ratio", layer: "core"},
	{name: "core.em_vs_mv_gain", unit: "ratio", layer: "core"},

	// internal/assign: AccOpt.
	{name: "assign.accopt_ms", unit: "ms", layer: "assign"},
	{name: "service.plan_overhead_ms", unit: "ms", layer: "assign"},

	// checkpoint.go + internal/snapshot.
	{name: "snapshot.bytes", unit: "bytes", layer: "snapshot"},
	{name: "snapshot.encode_ms", unit: "ms", layer: "snapshot"},
	{name: "snapshot.restore_ms", unit: "ms", layer: "snapshot"},

	// internal/trace.
	{name: "trace.overhead_frac", unit: "ratio", layer: "trace"},
	{name: "trace.spans_per_req", unit: "count", layer: "trace"},

	// The server process's runtime.
	{name: "server.cpu_ms_per_req", unit: "ms", layer: "server"},
	{name: "server.heap_live_mb", unit: "MB", layer: "server"},
	{name: "server.peak_rss_mb", unit: "MB", layer: "server"},
	{name: "server.gc_pause_p50_ms", unit: "ms", layer: "server"},
}

// lookupMetric returns the catalog entry for name.
func lookupMetric(name string) (metricDef, bool) {
	for _, d := range catalog {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
