package main

// endToEnd computes the end-to-end metrics from one pass of each phase.
func (b *bench) endToEnd(setup []setupRound, sv *serveStats, rs *resolveStats, rt *restartStats, successRate float64) map[string]metric {
	var setupS []float64
	for _, r := range setup {
		setupS = append(setupS, r.total.Seconds())
	}
	return map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"resolve_ms":        {median(rs.ms), "ms"},
		"f1":                {b.first.f1, "ratio"},
		"peak_heap_mb":      {median(rs.heapMB), "MB"},
		"replay_p50_us":     {median(latencies(sv.working.out, kindReplay)), "us"},
		"new_p50_us":        {median(latencies(sv.working.out, kindNew)), "us"},
		"success_rate":      {successRate, "ratio"},
		"rebuild_ms":        {median(rt.rebuild), "ms"},
		"snapshot_write_ms": {median(rt.write), "ms"},
		"warm_start_ms":     {median(rt.warm), "ms"},
		"snapshot_mb":       {rt.snapMB, "MB"},
	}
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference is reported. f1, snapshot_mb and success_rate are left out:
// they are exact outputs that tracing cannot change.
var overheadOf = []string{"setup_s", "resolve_ms", "peak_heap_mb", "replay_p50_us",
	"new_p50_us", "rebuild_ms", "snapshot_write_ms", "warm_start_ms"}

// perLayer computes the traced run's per-layer metrics.
func (b *bench) perLayer(m *measurements, untraced map[string]metric, spans []span) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	dur := durations(spans)
	attr := func(span, key string) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == span {
				xs = append(xs, s.Attrs[key])
			}
		}
		return xs
	}

	var parse []float64
	for _, r := range m.setup {
		parse = append(parse, ms(r.parse))
	}
	put("kb.parse_ms", median(parse), "ms")
	put("kb.parse_mb_per_s", float64(b.inputBytes)/1e6/(median(parse)/1e3), "MB/s")
	put("kb.tokenize_us", median(m.probes.tokenize), "us")
	put("kb.materialize_ms", median(dur["kb.materialize"]), "ms")

	for _, k := range []string{"stats.attributes_ms", "stats.relations_ms", "stats.topneighbors_ms",
		"blocking.name_ms", "blocking.token_ms", "graph.beta_ms", "graph.gamma_ms", "matching.ms"} {
		put(k, median(attr("core.resolve", k)), "ms")
	}
	last := outputAttrs(m.resolveT.last)
	for _, k := range []string{"graph.edges", "matching.matches_r1", "matching.matches_r2", "matching.matches_r3", "matching.matches_r4"} {
		put(k, last[k], "count")
	}
	comparisons := float64(b.ref.TokenIndex().TotalComparisons())
	put("blocking.comparisons", comparisons, "count")
	put("blocking.purged_blocks", float64(b.ref.PurgedBlocks()), "count")
	put("blocking.comparisons_per_match", comparisons/float64(max(b.first.truePos, 1)), "ratio")
	put("graph.beta_row_us", median(m.probes.betaRow), "us")

	put("core.build_ms", median(dur["core.build"]), "ms")
	put("core.prewarm_ms", median(dur["core.prewarm"]), "ms")
	put("core.resolve_with_ms", median(m.probes.resolveWith), "ms")
	put("core.query_replay_p50_us", median(m.probes.queryReplay), "us")
	put("core.query_new_p50_us", median(m.probes.queryNew), "us")
	put("core.query_from_entity_us", median(m.probes.queryFromEntity), "us")

	handlerReplay := median(m.probes.handlerReplay)
	put("server.handler_replay_us", handlerReplay, "us")
	put("server.handler_new_us", median(m.probes.handlerNew), "us")
	put("server.decode_us", median(m.probes.decode), "us")
	put("server.encode_us", median(m.probes.encode), "us")
	put("server.response_bytes", median(m.probes.responseBytes), "bytes")
	put("server.transport_us", m.transport-handlerReplay, "us")

	var late []float64
	for _, o := range m.serve.working.out {
		late = append(late, us(o.late))
	}
	put("loadgen.late_us", summarize(late, 990).Tail, "us")
	backlog := 0
	for _, r := range m.serve.ladder {
		backlog = max(backlog, r.backlog)
	}
	put("loadgen.backlog", float64(backlog), "count")

	encode := median(m.probes.encodeMS)
	put("snapshot.encode_ms", encode, "ms")
	put("snapshot.file_ms", median(m.restartT.write)-encode, "ms")
	put("snapshot.open_ms", median(dur["snapshot.open"]), "ms")
	put("snapshot.first_query_ms", median(dur["snapshot.first_query"]), "ms")
	put("snapshot.read_ms", median(m.probes.readMS), "ms")

	put("parallel.speedup_x", median(m.probes.resolveW1)/median(m.resolveT.ms), "x")
	put("runtime.alloc_mb_per_op", median(attr("core.resolve", "runtime.alloc_bytes"))/1e6, "MB")
	put("runtime.gc_cycles_per_op", median(attr("core.resolve", "runtime.gc_cycles")), "count")

	put("trace.unaccounted_pct", unaccountedPct(spans), "%")
	tracedRounds := m.setup[setupRounds:]
	traced := b.endToEnd(tracedRounds, m.serveT, m.resolveT, m.restartT, untraced["success_rate"].Value)
	for _, k := range overheadOf {
		put("trace.overhead."+k, traced[k].Value-untraced[k].Value, untraced[k].Unit)
	}
	return out
}

// stepReport is one serving step as the report shows it.
type stepReport struct {
	QPS     int     `json:"qps"`
	N       int     `json:"n"`
	Failed  int     `json:"failed"`
	Backlog int     `json:"backlog"`
	Latency dist    `json:"latency_us"`
	Late    dist    `json:"late_us"`
	Pass    bool    `json:"meets_limit"`
	Seconds float64 `json:"seconds"`
}

func (b *bench) stepReport(r stepResult) stepReport {
	var lat, late []float64
	failed := 0
	for _, o := range r.out {
		lat = append(lat, us(o.lat))
		late = append(late, us(o.late))
		if o.failed {
			failed++
		}
	}
	return stepReport{QPS: r.qps, N: len(r.out), Failed: failed, Backlog: r.backlog,
		Latency: summarize(lat, 990), Late: summarize(late, 990), Pass: b.meetsLimit(r),
		Seconds: dueOffset(len(r.out), r.qps).Seconds()}
}

// serveSteps reports every untraced serving step.
func (b *bench) serveSteps(sv *serveStats) []stepReport {
	out := []stepReport{b.stepReport(sv.working)}
	for _, r := range sv.ladder {
		out = append(out, b.stepReport(r))
	}
	return out
}

// samples reports the sample count and spread behind each untraced timing.
func (b *bench) samples(m *measurements) map[string]any {
	var setupS, parseS, readyS []float64
	for _, r := range m.setup[:setupRounds] {
		setupS = append(setupS, r.total.Seconds())
		parseS = append(parseS, r.parse.Seconds())
		readyS = append(readyS, r.ready.Seconds())
	}
	return map[string]any{
		"setup_s":           summarize(setupS, 500),
		"setup_parse_s":     summarize(parseS, 500),
		"setup_ready_s":     summarize(readyS, 500),
		"resolve_ms":        summarize(m.resolve.ms, 990),
		"peak_heap_mb":      summarize(m.resolve.heapMB, 990),
		"replay_us":         summarize(latencies(m.serve.working.out, kindReplay), 990),
		"new_us":            summarize(latencies(m.serve.working.out, kindNew), 990),
		"replay_p95_us":     summarize(latencies(m.serve.working.out, kindReplay), 950),
		"new_p95_us":        summarize(latencies(m.serve.working.out, kindNew), 950),
		"replay_p90_us":     summarize(latencies(m.serve.working.out, kindReplay), 900),
		"new_p90_us":        summarize(latencies(m.serve.working.out, kindNew), 900),
		"rebuild_ms":        summarize(m.restart.rebuild, 990),
		"snapshot_write_ms": summarize(m.restart.write, 990),
		"warm_start_ms":     summarize(m.restart.warm, 990),
		"ladder_steps":      len(m.serve.ladder),
		"raw": map[string][]float64{
			"setup_s": setupS, "resolve_ms": m.resolve.ms, "rebuild_ms": m.restart.rebuild,
			"snapshot_write_ms": m.restart.write, "warm_start_ms": m.restart.warm,
		},
	}
}
