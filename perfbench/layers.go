package main

import (
	"fmt"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Times and counts are per traced op; a layer a workload does not
// touch reports 0.
var perLayer = []struct{ name, unit string }{
	{"trace.generate_s", "s"}, {"trace.instr", "count"},
	{"mica.record_s", "s"}, {"mica.ilp_s", "s"}, {"mica.ppm_s", "s"}, {"mica.scalar_s", "s"}, {"mica.vector_s", "s"},
	{"fcache.gets", "count"}, {"fcache.get_s", "s"}, {"fcache.hit_ratio", "ratio"},
	{"fcache.puts", "count"}, {"fcache.put_s", "s"}, {"fcache.written_mb", "MiB"},
	{"fcache.hot_hit_ratio", "ratio"}, {"fcache.hot_mb", "MiB"},
	{"stats.pca_s", "s"}, {"stats.scores_s", "s"},
	{"cluster.kmeans_s", "s"}, {"cluster.lloyd_iters", "count"},
	{"ga.select_s", "s"}, {"ga.evaluations", "count"},
	{"core.export_s", "s"}, {"core.delta_frozen_ratio", "ratio"}, {"core.delta_fallbacks", "count"},
	{"core.unattributed_s", "s"},
	{"corpus.query_s", "s"}, {"corpus.scan_rows", "count"}, {"corpus.index_build_s", "s"},
	{"corpus.ingest_s", "s"}, {"corpus.setup_ingest_s", "s"}, {"corpus.records", "count"},
	{"serve.http_s", "s"}, {"serve.queue_wait_s", "s"},
	{"serve.http_overhead_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.job_run_ms", "ms"},
	{"serve.rejects", "count"}, {"serve.query_p99_ms", "ms"},
	{"serve.hot_job_p50_ms", "ms"}, {"serve.append_job_p50_ms", "ms"},
	{"par.busy_frac", "ratio"}, {"obs.spans_retained", "count"},
	{"traced.op_s", "s"}, {"traced.ops_per_s", "1/s"}, {"untraced.ops_per_s", "1/s"},
	{"untraced.instr_per_s", "1/s"},
}

// layerMetrics turns a traced run's spans and counts into the per-layer
// metrics; the workload fills in what only it can measure.
func layerMetrics(t *tracer, n layerCounts, ilpS, ppmS float64) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	a := t.attribute()
	layerTimes(a, m)
	ops := float64(max(a.ops, 1))
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("trace.instr", float64(n.instr)/ops)
	// ILP and PPM are split out of RecordBatch by standalone replays of
	// the same batches; the scalar pass is the remainder.
	set("mica.ilp_s", ilpS/ops)
	set("mica.ppm_s", ppmS/ops)
	set("mica.scalar_s", m["mica.record_s"].Value-(ilpS+ppmS)/ops)
	set("fcache.gets", float64(n.gets)/ops)
	if n.gets > 0 {
		set("fcache.hit_ratio", float64(n.hits)/float64(n.gets))
	}
	set("fcache.puts", float64(n.puts)/ops)
	set("fcache.written_mb", float64(n.putBytes)/ops/(1<<20))
	set("cluster.lloyd_iters", float64(n.lloydIters)/ops)
	set("ga.evaluations", float64(n.evaluations)/ops)
	if n.capacityNs > 0 {
		set("par.busy_frac", n.busyNs/n.capacityNs)
	}
	return m
}

// finishTrace prints the attribution row and writes the spans file.
func finishTrace(o *options, t *tracer, m map[string]metric) {
	printAttribution(o.log, o.workload, m)
	if err := t.writeSpans(traceFile(o)); err != nil {
		fmt.Fprintf(o.log, "writing spans: %v\n", err)
	}
}
