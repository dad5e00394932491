package main

// perLayer lists every per-layer metric with its unit, grouped by the
// module it measures. A traced run reports all of them on every workload;
// a layer the workload does not run reads 0. README.md names the
// end-to-end metric each one should move.
var perLayer = []metricDecl{
	// cmd/fabp-serve, from the server's /metrics and the client's view.
	{"serve.server_ms_mean", "ms"},
	{"serve.transport_ms_mean", "ms"},
	{"serve.resp_bytes_mean", "bytes"},
	{"serve.cache_fastpath_frac", "frac"},
	// sched.Admission and resultcache.
	{"admission.wait_ms_mean", "ms"},
	{"admission.shed", "count"},
	{"rcache.hit_frac", "frac"},
	{"rcache.collapsed", "count"},
	// backtrans/isa: spans around fabp.NewQuery.
	{"backtrans.new_query_us", "us"},
	// db: set-up spans and the warm-start counter.
	{"db.load_ms", "ms"},
	{"db.warm_ms", "ms"},
	{"db.planes_reused", "count"},
	// sched.
	{"sched.shards_per_scan", "count"},
	{"sched.pool_wait_ms", "ms"},
	{"sched.busy_frac", "frac"},
	// bitpar.
	{"bitpar.kernel_s", "s"},
	{"bitpar.batch_kernel_cells_per_s", "cells/s"},
	{"bitpar.kernel_cells_per_s", "cells/s"},
	{"bitpar.plane_hit_frac", "frac"},
	{"bitpar.pack_s", "s"},
	{"bitpar.packed_words", "count"},
	{"bitpar.plane_bytes_saved", "bytes"},
	// bio.
	{"bio.decode_nt_per_s", "nt/s"},
	// core.
	{"core.scalar_scans", "count"},
	{"core.scalar_cells_per_s", "cells/s"},
	// tblastn.
	{"tblastn.scan_s", "s"},
	{"tblastn.index_build_s", "s"},
	{"tblastn.hits_per_lookup", "ratio"},
	{"tblastn.speculative_frac", "frac"},
	{"tblastn.serial_nt_per_s", "nt/s"},
	// fabp facade: spans around the public entry points.
	{"fabp.scan_ms_p50", "ms"},
	{"fabp.batch_ms_p50", "ms"},
	{"fabp.stream_ms_p50", "ms"},
	{"fabp.search_ms_p50", "ms"},
	{"fabp.batch_self_ms_mean", "ms"},
	{"fabp.search_self_ms_mean", "ms"},
	// Measured input properties.
	{"share.align_cache_hit", "frac"},
	{"share.search_cache_hit", "frac"},
	{"share.scalar_scans", "frac"},
	// The cost of tracing itself.
	{"trace.overhead_req_per_s_frac", "frac"},
	{"trace.overhead_p50_frac", "frac"},
	{"trace.spans", "count"},
}

// Span names: the benchmark's calls into each layer's public functions.
const (
	spanNewQuery     = "fabp.NewQuery"
	spanNewReference = "fabp.NewReference"
	spanLoad         = "fabp.LoadDatabase"
	spanWarm         = "fabp.Database.WarmPlanes"
	spanScan         = "fabp.Scan"
	spanSearch       = "fabp.Scan/protein"
	spanBatch        = "fabp.AlignDatabaseBatch"
	spanStream       = "fabp.AlignBatchStream"
)

// layerValues holds per-layer metric values by name.
type layerValues map[string]float64

// metrics attaches the units, reporting 0 for a layer not measured.
func (l layerValues) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metric{l[d.Name], d.Unit}
	}
	return out
}

// layers derives the per-layer metrics of a traced window m from the
// program's telemetry deltas d, the benchmark's spans and the client's
// own measurements.
func layers(m *meter, d delta, tr *tracer) layerValues {
	wall := m.wall.Seconds()
	kinds := m.byKind()
	tot := m.totals()
	serverMs := d.meanMs("serve.latency")
	l := layerValues{
		"serve.server_ms_mean":      serverMs,
		"serve.resp_bytes_mean":     ratio(float64(tot.bytes), float64(tot.n)),
		"serve.cache_fastpath_frac": ratio(d.counter("serve.cache.hits"), d.counter("serve.requests")),

		"admission.wait_ms_mean": d.meanMs("admission.wait"),
		"admission.shed":         d.counter("admission.shed.capacity") + d.counter("admission.shed.deadline"),
		"rcache.hit_frac":        ratio(d.counter("rcache.hits"), d.counter("rcache.hits")+d.counter("rcache.misses")),
		"rcache.collapsed":       d.counter("rcache.collapsed"),

		"backtrans.new_query_us": meanMs(tr.durations(spanNewQuery)) * 1e3,
		"db.load_ms":             meanMs(tr.durations(spanLoad)),
		"db.warm_ms":             meanMs(tr.durations(spanWarm)),
		"db.planes_reused":       float64(d.before.Counters["db.load.planes_reused"]),

		"sched.shards_per_scan": ratio(d.counter("scan.shards.run"), float64(tot.scan)),
		"sched.pool_wait_ms":    d.meanMs("pool.task.wait"),
		"sched.busy_frac":       ratio(d.sumNs("scan.shard.latency")/1e9, wall*float64(procs())),

		"bitpar.kernel_s":          d.sumNs("batch.kernel.latency") / 1e9,
		"bitpar.plane_hit_frac":    ratio(d.counter("cache.hits"), d.counter("cache.hits")+d.counter("cache.misses")),
		"bitpar.pack_s":            d.sumNs("stream.pack.latency") / 1e9,
		"bitpar.packed_words":      d.counter("stream.planes.packed_words"),
		"bitpar.plane_bytes_saved": d.counter("batch.plane_bytes_saved"),
		"core.scalar_scans":        d.counter("align.kernel.scalar"),
		"tblastn.scan_s":           d.sumNs("tblastn.scan.latency") / 1e9,
		"tblastn.index_build_s":    d.sumNs("tblastn.index.build.latency") / 1e9,
		"tblastn.hits_per_lookup":  ratio(d.counter("tblastn.word.hits"), d.counter("tblastn.word.lookups")),
		"tblastn.speculative_frac": ratio(d.counter("tblastn.extensions.speculative"), d.counter("tblastn.extensions")+d.counter("tblastn.extensions.speculative")),
		"share.scalar_scans":       ratio(d.counter("align.kernel.scalar"), d.counter("align.kernel.scalar")+d.counter("align.kernel.bitparallel")),
		"fabp.scan_ms_p50":         percentileMs(tr.durations(spanScan), 50),
		"fabp.batch_ms_p50":        percentileMs(tr.durations(spanBatch), 50),
		"fabp.stream_ms_p50":       percentileMs(tr.durations(spanStream), 50),
		"fabp.search_ms_p50":       percentileMs(tr.durations(spanSearch), 50),
		"trace.spans":              float64(tr.count()),
	}
	if serverMs > 0 {
		l["serve.transport_ms_mean"] = ratio(float64(tot.busy.Nanoseconds())/1e6, float64(tot.n)) - serverMs
	}
	if k := kinds["align"]; k != nil {
		l["share.align_cache_hit"] = ratio(float64(k.cached), float64(k.n))
	}
	if k := kinds["search"]; k != nil {
		l["share.search_cache_hit"] = ratio(float64(k.cached), float64(k.n))
	}
	// Facade self time: what a fused call spends outside the kernel and
	// packing layers (attribution, merge, hit conversion), and what a
	// protein search spends outside tblastn's index and scan phases.
	if fused := append(tr.durations(spanBatch), tr.durations(spanStream)...); len(fused) > 0 {
		layer := (d.sumNs("batch.kernel.latency") + d.sumNs("stream.pack.latency")) / 1e6
		l["fabp.batch_self_ms_mean"] = (sumMs(fused) - layer) / float64(len(fused))
	}
	if search := tr.durations(spanSearch); len(search) > 0 {
		layer := (d.sumNs("tblastn.scan.latency") + d.sumNs("tblastn.index.build.latency")) / 1e6
		l["fabp.search_self_ms_mean"] = (sumMs(search) - layer) / float64(len(search))
	}
	return l
}
