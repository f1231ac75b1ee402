package main

// layerInputs is everything a traced run measured.
type layerInputs struct {
	counts  workCounts
	self    map[string]float64 // profile seconds per layer
	build   float64            // problem construction, s
	serial  []float64          // per-cell host ms, one cell at a time
	poolEff float64
	fieldNs float64
	sleepNs float64
	codecs  codecTimes
	serve   *servePass // serve-mixed only
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer lists the per-layer metrics every traced run reports, in
// report order. Metrics that do not apply to a workload read 0.
func perLayer() []metricDef {
	m := []metricDef{
		{"integrate.steps", "count"}, {"core.streamlines", "count"},
		{"comm.msgs", "count"}, {"comm.bytes", "B"},
		{"store.loads", "count"}, {"store.purges", "count"}, {"store.block_efficiency", "1"},
		{"core.steal_attempts", "count"}, {"core.steal_hits", "count"}, {"core.steal_hit_ratio", "1"},
		{"sim.vwall_s", "s"}, {"core.oom_cells", "count"},
		{"prefetch.issued", "count"}, {"prefetch.hits", "count"}, {"prefetch.hit_ratio", "1"},
		{"faults.seeds_adopted", "count"}, {"faults.send_failed", "count"}, {"obs.trace_events", "count"},
	}
	for _, l := range layers {
		m = append(m, metricDef{l + ".self_s", "s"}, metricDef{l + ".share", "1"})
	}
	m = append(m, []metricDef{
		{"integrate.ns_per_step", "ns"}, {"core.coord_ns_per_step", "ns"}, {"comm.ns_per_msg", "ns"},
		{"field.eval_ns", "ns"}, {"sim.sleep_ns", "ns"},
		{"experiments.build_s", "s"}, {"core.cell_p50_ms", "ms"}, {"core.cell_max_ms", "ms"},
		{"experiments.pool_efficiency", "1"},
		{"serve.handler_hit_p50_ms", "ms"}, {"serve.handler_hit_p99_ms", "ms"}, {"serve.handler_cold_p50_ms", "ms"},
		{"http.overhead_p50_ms", "ms"},
		{"serve.source_disk", "count"}, {"serve.source_memory", "count"}, {"serve.source_computed", "count"},
		{"serve.hit_ratio", "1"}, {"serve.rejected", "count"},
		{"serve.store_get_us", "us"}, {"serve.store_put_us", "us"},
		{"experiments.key_parse_us", "us"}, {"experiments.key_digest_us", "us"},
		{"metrics.summary_encode_us", "us"}, {"metrics.summary_parse_us", "us"},
		{"trace.overhead_frac", "1"},
	}...)
	for _, e := range endToEnd {
		m = append(m, metricDef{"traced." + e.name, e.unit})
	}
	return append(m, metricDef{"traced.hit_p99_ms", "ms"})
}

// layerReport sets every per-layer metric a traced run reports.
func layerReport(rep *report, in layerInputs) {
	vals := map[string]float64{}
	c := in.counts
	vals["integrate.steps"] = float64(c.steps)
	vals["core.streamlines"] = float64(c.streamlines)
	vals["comm.msgs"] = float64(c.msgs)
	vals["comm.bytes"] = float64(c.bytes)
	vals["store.loads"] = float64(c.loads)
	vals["store.purges"] = float64(c.purges)
	vals["store.block_efficiency"] = 1
	if c.loads > 0 {
		vals["store.block_efficiency"] = float64(c.loads-c.purges) / float64(c.loads)
	}
	vals["core.steal_attempts"] = float64(c.stealAttempts)
	vals["core.steal_hits"] = float64(c.stealHits)
	vals["core.steal_hit_ratio"] = ratio(float64(c.stealHits), float64(c.stealAttempts))
	vals["sim.vwall_s"] = c.vwall
	vals["core.oom_cells"] = float64(c.oomCells)
	vals["prefetch.issued"] = float64(c.prefetchIssued)
	vals["prefetch.hits"] = float64(c.prefetchHits)
	vals["prefetch.hit_ratio"] = ratio(float64(c.prefetchHits), float64(c.prefetchIssued))
	vals["faults.seeds_adopted"] = float64(c.seedsAdopted)
	vals["faults.send_failed"] = float64(c.sendFailed)
	vals["obs.trace_events"] = float64(c.traceEvents)

	total := 0.0
	for _, s := range in.self {
		total += s
	}
	for _, l := range layers {
		vals[l+".self_s"] = in.self[l]
		vals[l+".share"] = ratio(in.self[l], total)
	}
	s := in.self
	steps := float64(c.steps)
	vals["integrate.ns_per_step"] = ratio((s["field"]+s["vec"]+s["integrate"])*1e9, steps)
	vals["core.coord_ns_per_step"] = ratio((s["core.master"]+s["core.thief"]+s["core"]+s["sim"]+s["comm"])*1e9, steps)
	vals["comm.ns_per_msg"] = ratio((s["comm"]+s["sim"])*1e9, float64(c.msgs))
	vals["field.eval_ns"] = in.fieldNs
	vals["sim.sleep_ns"] = in.sleepNs
	vals["experiments.build_s"] = in.build
	vals["core.cell_p50_ms"] = median(in.serial)
	vals["core.cell_max_ms"] = maxOf(in.serial)
	vals["experiments.pool_efficiency"] = in.poolEff
	vals["serve.store_get_us"] = in.codecs.storeGet
	vals["serve.store_put_us"] = in.codecs.storePut
	vals["experiments.key_parse_us"] = in.codecs.keyParse
	vals["experiments.key_digest_us"] = in.codecs.keyDigest
	vals["metrics.summary_encode_us"] = in.codecs.sumEncode
	vals["metrics.summary_parse_us"] = in.codecs.sumParse
	if p := in.serve; p != nil {
		var hit, cold, overhead []float64
		for i, id := range p.hitID {
			h := float64(p.handlerDur[id].Load()) / 1e6
			hit = append(hit, h)
			overhead = append(overhead, p.hit[i]-h)
		}
		for _, id := range p.coldID {
			cold = append(cold, float64(p.handlerDur[id].Load())/1e6)
		}
		vals["serve.handler_hit_p50_ms"] = median(hit)
		vals["serve.handler_hit_p99_ms"] = quantile(hit, 0.99)
		vals["serve.handler_cold_p50_ms"] = median(cold)
		vals["http.overhead_p50_ms"] = median(overhead)
		vals["serve.source_disk"] = float64(p.sources["disk"])
		vals["serve.source_memory"] = float64(p.sources["memory"])
		vals["serve.source_computed"] = float64(p.sources["computed"])
		vals["serve.hit_ratio"] = ratio(float64(p.sources["disk"]+p.sources["memory"]), float64(p.cells))
		vals["serve.rejected"] = float64(p.rejected)
	}
	for _, m := range perLayer() {
		if _, ok := rep.Metrics[m.name]; ok {
			continue // traced.* and trace.overhead_frac, set by the caller
		}
		rep.set(m.name, m.unit, vals[m.name])
	}
}
