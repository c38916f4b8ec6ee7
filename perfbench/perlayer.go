package main

// fabrics are the three verbs backends; a workload runs on one, and the
// other two report zero.
var fabrics = []string{"ib", "shmfab", "rtfab"}

// perLayer fills the per-layer metrics of a traced invocation. base is the
// untraced world and tr the traced one, both running the same workload for
// the same time. Process-wide numbers (runtime.*, simtime.*) and set-up
// memory come from base, so the recorder's own cost does not show in them;
// counters, spans and the program's trace come from tr.
func perLayer(res *result, base, tr *phase) {
	c := tr.ctr
	msgs := float64(tr.msgs())
	bulk := float64(tr.bulkMsg)
	per := func(v int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / n
	}
	ratio := func(a, b int64) float64 { return per(a, float64(a+b)) }

	pr := packProbe(tr.layouts)
	res.set("datatype.compile_us", pr.compileUs, "us")
	res.set("pack.pack_ns_per_run", pr.packNsPerRun, "ns")
	res.set("pack.unpack_ns_per_run", pr.unpackNsPerRun, "ns")
	res.set("pack.copy_ratio", pr.copyRatio, "ratio")
	res.set("pack.working_set_kib", pr.workingSetKiB, "KiB")
	res.set("pack.llc_kib", llcKiB(), "KiB")
	res.set("pack.bytes_copied_per_byte", per(c.BytesPacked+c.BytesUnpacked+c.BytesStaged, float64(tr.payload)), "ratio")

	res.set("core.ctrl_per_msg", per(c.CtrlMessages, msgs), "count")
	res.set("core.segments_per_bulk", per(c.SegmentsPipelined, bulk), "count")
	res.set("core.pool_exhausted", float64(c.PoolExhausted), "count")
	res.set("core.type_cache_hit_ratio", ratio(c.TypeCacheHits, c.TypeLayoutsSent), "ratio")
	for s, share := range schemeShares(tr) {
		res.set("core.scheme_share."+s, share, "ratio")
	}
	res.set("core.retries", float64(c.FaultRetries), "count")
	res.set("core.failed", float64(c.RequestsFailed), "count")

	res.set("mem.reg_per_msg", per(c.Registrations, msgs), "count")
	res.set("mem.reg_cache_hit_ratio", ratio(c.RegCacheHits, c.RegCacheMisses), "ratio")
	pages := 0.0
	if tr.reg != nil {
		pages = float64(tr.reg.Gauge("registered_pages").High())
	}
	res.set("mem.registered_pages_peak", pages, "count")
	res.set("mem.rss_bytes_per_rank", (base.rssSetup-base.rssBase)*(1<<20)/float64(base.ranks), "bytes")

	res.set("qos.parked_per_bulk", per(c.QoSParked, bulk), "count")
	park := 0.0
	if tr.reg != nil {
		park = float64(tr.reg.Histogram("qos_park_ns").Quantile(0.99)) / 1e3
	}
	res.set("qos.park_us_p99", park, "us")
	res.set("qos.lane_deferrals_per_bulk", per(c.QoSLaneDeferrals, bulk), "count")
	res.set("qos.lane_bypass", float64(c.QoSLaneBypass), "count")
	res.set("qos.rejected", float64(c.QoSRejected), "count")

	choose := 0.0
	if tr.sel != nil {
		choose = tr.sel.meanChooseNs()
		res.note("tuner wrapper, whole traced world: %s", tr.sel)
	}
	res.set("tuner.choose_ns", choose, "ns")
	res.set("tuner.explore_ratio", ratio(c.TunerExplorations, c.TunerExploitations), "ratio")
	res.set("tuner.regret_us_per_msg", per(c.TunerRegretNs, msgs)/1e3, "us")

	for _, f := range fabrics {
		var descs, sges, bells, batched, cqes, busy float64
		if f == tr.fabric {
			descs = per(c.DescriptorsPosted, msgs)
			sges = per(c.SGEsPosted, float64(c.DescriptorsPosted))
			bells = per(c.ListPosts, msgs)
			batched = per(c.BatchedWRs, float64(c.DescriptorsPosted))
			cqes = per(c.Completions, msgs)
			if f != "rtfab" && tr.clockNs > 0 {
				busy = float64(tr.tally.busy["fabric"]) / (float64(tr.ranks) * float64(tr.clockNs))
			}
		}
		res.set(f+".descs_per_msg", descs, "count")
		res.set(f+".sges_per_desc", sges, "count")
		res.set(f+".doorbells_per_msg", bells, "count")
		res.set(f+".batched_share", batched, "ratio")
		res.set(f+".cqes_per_msg", cqes, "count")
		res.set(f+".tx_busy_frac", busy, "ratio")
	}

	virt := 0.0
	if base.fabric != "rtfab" && base.hostNs > 0 {
		virt = float64(base.clockNs) / float64(base.hostNs)
	}
	res.set("simtime.virt_per_host", virt, "ratio")

	sp := tr.spans.stats()
	res.set("mpi.post_ns", per(sp[spanPost].totalNs, float64(sp[spanPost].n)), "ns")
	res.set("mpi.wait_us_p50", sp[spanWait].p50Ns/1e3, "us")

	bmsgs := float64(base.msgs())
	res.set("runtime.alloc_bytes_per_msg", per(int64(base.proc1.allocBytes-base.proc0.allocBytes), bmsgs), "bytes")
	res.set("runtime.gc_cycles", float64(base.proc1.gcCycles-base.proc0.gcCycles), "count")
	res.set("runtime.gc_pause_ms", float64(base.proc1.pauseNs-base.proc0.pauseNs)/1e6, "ms")
	res.set("runtime.heap_peak_mb", float64(base.heapPeak)/(1<<20), "MB")

	res.set("gen.lag_p99_us", float64(base.lag.Quantile(0.99))/1e3, "us")
	res.set("gen.backlog_ratio", backlogRatio(base), "ratio")

	overhead := 0.0
	if bmsgs > 0 && msgs > 0 && base.hostNs > 0 {
		overhead = (float64(tr.hostNs) / msgs) / (float64(base.hostNs) / bmsgs)
	}
	res.set("trace.overhead", overhead, "ratio")

	// Self time per layer and message: the program's layers on the
	// workload clock, the benchmark's calls into mpi on the host clock.
	for _, l := range traceLayers {
		res.set("self."+l+"_us_per_msg", per(tr.tally.busy[l], msgs)/1e3, "us")
	}
	progNs, benchNs := tr.spans.selfNs()
	res.set("self.mpi_us_per_msg", per(progNs, msgs)/1e3, "us")
	res.set("self.bench_us_per_msg", per(benchNs, msgs)/1e3, "us")
	res.note("pack probe: one pack of each layout moves %.0f KiB (read + write); working set %.0f KiB against a %.0f KiB last-level cache",
		pr.movedKiB, pr.workingSetKiB, llcKiB())
}

// backlogRatio is the mean latency of open-loop messages due in the last
// quarter of their batch over that of those due in the first quarter (0
// without open-loop traffic). Every batch drains before the next starts, so
// a backlog cannot carry over from one batch to the next; a rate above
// saturation shows as latency that grows through each batch, and reads
// well above 1.
func backlogRatio(ph *phase) float64 {
	first, last := ph.backlog[0], ph.backlog[1]
	if first.n == 0 || last.n == 0 || first.sumNs == 0 {
		return 0
	}
	return (float64(last.sumNs) / float64(last.n)) / (float64(first.sumNs) / float64(first.n))
}
