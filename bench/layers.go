package main

// layerDef names one per-layer metric of BENCHMARK.json.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer is the per-layer metric set of BENCHMARK.json, in ladder
// order: names are <module>.<metric>[.<kind or variant>]. README.md says
// which end-to-end metric each should move and on which workload. None
// has a bound. "Better" is the direction an optimisation would move it;
// for model outputs (simulated time, counts that repeat exactly) it is
// the direction the paper's argument favours, and a host-speed change
// must leave them identical.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	var out []layerDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerDef{Name: n, Unit: unit, Better: better})
		}
	}
	each := func(prefix string, suffixes ...string) []string {
		names := make([]string, len(suffixes))
		for i, s := range suffixes {
			names[i] = prefix + s
		}
		return names
	}
	kinds := []string{"q6", "q1", "q13", "par", "shared", "txn"}
	model := []string{"q6", "q13", "txn"} // kinds whose model outputs are kept
	queries := []string{"q6", "q1", "q13"}

	// server: the HTTP layer over Runner.Run.
	add("ms", "lower", "server.self_ms.query", "server.self_ms.txn")
	add("us", "lower", "server.invalid_400_us", "server.job_poll_us", "server.metrics_scrape_us")
	add("count", "lower", "server.admission_rejects")

	// core: Runner.Run wall time per request shape, and its q6 sides.
	add("ms", "lower", each("core.run_ms.", kinds...)...)
	add("ms", "lower", "core.vec_side_ms.row.q6", "core.vec_side_ms.vec.q6", "core.self_ms.q6")

	// sim: simulator speed on the host, then model outputs (simulated
	// time — not host time).
	add("Mcycles/s", "higher", each("sim.mcycles_per_host_s.", kinds...)...)
	add("Mrec/s", "higher", "sim.mrec_per_host_s.q6", "sim.mrec_per_host_s.txn")
	add("ms", "lower", "sim.self_ms.row.q6", "sim.self_ms.vec.q6")
	add("cycles", "lower", each("sim.cycles.", model...)...)
	add("count", "lower", each("sim.instructions.", model...)...)
	add("ipc", "higher", each("sim.ipc.", model...)...)
	add("ratio", "lower", each("sim.istall_frac.", model...)...)
	add("ratio", "lower", each("sim.dstall_frac.", model...)...)

	// cache: the hierarchy model's own speed, then its counts.
	add("ns", "lower", "cache.read_hit_ns", "cache.read_miss_ns", "cache.fetch_ns", "cache.write_ns")
	add("ratio", "lower", each("cache.l1d_miss_ratio.", model...)...)
	add("ratio", "lower", each("cache.l2_miss_ratio.", model...)...)
	add("count", "lower", "cache.l1i_misses.txn")

	// trace: hand-off speed and exact trace lengths.
	add("Mrec/s", "higher", "trace.pipe_mrec_per_s")
	for _, ex := range []string{"row", "vec"} {
		add("count", "lower", each("trace.records."+ex+".", queries...)...)
	}

	// workload: whole plans and database loads.
	for _, ex := range []string{"row", "vec"} {
		add("ms", "lower", each("workload.produce_ms."+ex+".", queries...)...)
	}
	for _, q := range queries {
		add("Mrows/s", "higher", each("workload.native_mrows_per_s."+q+".", "borrow", "copy", "interp")...)
	}
	add("s", "lower", each("workload.build_tpch_s.", "test", "full")...)
	add("s", "lower", each("workload.build_tpcc_s.", "test", "full")...)

	// engine: native kernels one operator at a time.
	add("Mrows/s", "higher", "engine.filter_mrows_per_s.q6")
	add("ns", "lower", each("engine.join_build_ns_per_row.", "chained", "partitioned")...)
	add("ns", "lower", each("engine.join_probe_ns_per_row.", "chained", "partitioned", "prefetch")...)
	add("ns", "lower", each("engine.agg_ns_per_row.", "g6", "g1k", "g100k")...)
	add("x", "higher", "engine.morsel_scaling_x")

	// storage: page decode, leases, B+tree.
	add("GB/s", "higher", "storage.copy_gbps")
	add("ratio", "higher", "storage.copy_frac_of_memcpy", "storage.borrow_ratio")
	add("ns", "lower", "storage.span_ns_per_page", "storage.scan_ns_per_row", "storage.lease_ns",
		"storage.btree_get_ns", "storage.btree_insert_ns")

	// oltp / txn: the batch's programs with no simulator, and one lock.
	add("1/s", "higher", "oltp.mono_txn_per_host_s", "oltp.cohort_txn_per_host_s")
	add("count", "lower", "oltp.parks", "oltp.wounds")
	add("ns", "lower", "txn.lock_ns")

	// share: work-sharing counts of the shared-dss request.
	add("count", "lower", "share.rotations", "share.attaches")
	add("ratio", "higher", "share.result_cache_hit_ratio")

	// obs: span collection's tax on the batch.
	add("x", "lower", "obs.trace_overhead_x.txn")

	// host: the machine, and what each request shape costs the Go heap.
	add("count", "higher", "host.nproc", "host.gomaxprocs")
	add("GB/s", "higher", "host.memcpy_gbps")
	add("MB", "lower", "host.peak_rss_mb")
	add("ms", "lower", "host.gc_pause_ms")
	add("MB", "lower", each("host.alloc_mb_per_op.", kinds...)...)
	return out
}
