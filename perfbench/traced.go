package main

import (
	"fmt"

	"repro/internal/telemetry"
)

// tracedRun reports the per-layer metrics. It first measures a short
// untraced phase on a plain stack, then the full window on a stack whose
// engine, HTTP handler, HTTP client and replica links are wrapped; the
// difference of the two round-trip medians is the tracing overhead.
func (c runConfig) tracedRun(pool *inputPool) (*result, error) {
	wp := c.p.Workloads[c.workload]
	sys := c.p.System

	plain, err := buildStack(c.p, wp, stackHooks{})
	if err != nil {
		return nil, err
	}
	ph0 := c.newPhase(pool, seconds(c.secs*c.p.Harness.UntracedShare))
	c.drive(ph0, plain, nil)
	plain.close()
	untracedLat, _ := latencies(ph0.samples)

	tr := newTracer()
	hooks := stackHooks{engine: tr.wrapEngine, handler: tr.wrapHandler}
	if wp.cluster() {
		hooks.link = tr.wrapLink
	}
	st, err := buildStack(c.p, wp, hooks)
	if err != nil {
		return nil, err
	}
	defer st.close()

	ph := c.newPhase(pool, seconds(c.secs))
	ph.wrapCtx = withTag
	var reg regDelta
	var rt0, rt1 runtimeSnap
	var link0, link1 int64
	ph.onEdge = func(i int) {
		if i == 0 {
			reg.before, rt0, link0 = snapRegistry(), readRuntime(), tr.linkBytes.Load()
		} else {
			reg.after, rt1, link1 = snapRegistry(), readRuntime(), tr.linkBytes.Load()
		}
	}
	w := c.drive(ph, st, tr)
	progSpans := telemetry.DefaultTracer.Snapshot()

	res := c.newResult(ph)
	if n := ph0.wrong.Load(); n > 0 {
		res.Correct = false
		res.Findings = append(res.Findings, fmt.Sprintf("%d wrong outputs in the untraced phase", n))
	}
	lt := tr.collect(ph.samples)
	tracedLat, ok := latencies(ph.samples)
	okF := float64(ok)
	lr := newLayerReport()

	// core
	lr.set("core.build_s", "s", st.build.Seconds(), len(st.reps))
	lr.set("core.deploy_s", "s", st.deploy.Seconds(), len(st.reps))

	// wire: HTTP codec = client round trip minus the server's own latency.
	for _, proto := range []string{"binary", "json"} {
		name := "wire.http_codec_ms." + proto + ".p50"
		if len(lt.codec[proto]) == 0 {
			lr.notApplicable("ms", name)
			continue
		}
		lr.pct(name, lt.codec[proto], 0.5)
	}

	// serve
	lr.pct("serve.queue_wait_ms.p50", lt.queue, 0.5)
	lr.pct("serve.queue_wait_ms.p99", lt.queue, 0.99)
	var fills []float64
	for _, f := range lt.fills {
		fills = append(fills, float64(f))
	}
	lr.set("serve.batch_fill.mean", "req", mean(fills), len(fills))
	lr.pct("serve.demux_ms.p50", lt.demux, 0.5)
	timer := reg.counter(telemetry.MetricServeFlushes, map[string]string{"reason": telemetry.FlushReasonTimer})
	flushes := reg.counter(telemetry.MetricServeFlushes, nil)
	lr.set("serve.timer_flush_frac", "ratio", ratio(timer, flushes), int(flushes))
	admitted := reg.counter(telemetry.MetricServeAdmission, map[string]string{"verdict": telemetry.AdmitOutcomeAdmitted})
	lr.set("serve.rejects", "count", reg.counter(telemetry.MetricServeAdmission, nil)-admitted, 0)

	// monitor (the engine behind serve, or the router in cluster mode)
	lr.pct("monitor.batch_ms.p50", lt.batch, 0.5)
	lr.pct("monitor.batch_ms.p99", lt.batch, 0.99)
	lr.pct("monitor.submit_block_ms.p99", lt.submit, 0.99)
	tr.mu.Lock()
	inflight := append([]float64(nil), tr.inflight...)
	tr.mu.Unlock()
	lr.set("monitor.inflight.mean", "batches", mean(inflight), len(inflight))
	mvxStage := func(s telemetry.Span) bool { return s.Stage == sys.MVXStage }
	lr.pct("monitor.gather_ms.p50", spansOf(progSpans, "gather", w, mvxStage), 0.5)
	lr.pct("monitor.vote_ms.p50", spansOf(progSpans, "vote", w, mvxStage), 0.5)

	// infer: replay the bundle's own pool subgraphs with the server idle.
	for _, b := range []int{1, sys.MaxBatch} {
		mvx, pipe, err := replayTimes(st.reps[0].bundle, sys, pool.images, b, 5)
		if err != nil {
			return res, fmt.Errorf("infer replay at batch %d: %w", b, err)
		}
		suffix := fmt.Sprintf(".b%d", b)
		lr.set("infer.mvx_stage_ms"+suffix, "ms", mvx, 5)
		lr.set("infer.pipeline_ms"+suffix, "ms", pipe, 5)
	}

	// variant: live compute of the MVX variants, to check the replay.
	lr.pct("variant.compute_ms.mvx.p50", spansOf(progSpans, "variant-compute", w,
		func(s telemetry.Span) bool { return st.mvxVariants[s.Variant] }), 0.5)

	// workpool
	regions := reg.counter(telemetry.MetricPoolRegions, nil)
	if regions == 0 {
		lr.notApplicable("ratio", "workpool.parallel_frac")
	} else {
		lr.set("workpool.parallel_frac", "ratio", reg.counter(telemetry.MetricPoolParallelRegions, nil)/regions, int(regions))
	}

	// securechan
	lr.set("securechan.seal_us.mean", "us", reg.histMean(telemetry.MetricChanSealNs, nil)/1e3, 0)
	lr.set("securechan.open_us.mean", "us", reg.histMean(telemetry.MetricChanOpenNs, nil)/1e3, 0)
	lr.set("securechan.bytes_per_req", "B", ratio(reg.counter(telemetry.MetricChanBytesSent, nil), okF), ok)

	// check and transcript, per engine batch
	batches := reg.counter(telemetry.MetricEngineBatches, nil)
	lr.set("check.votes_per_batch", "votes", ratio(reg.counter(telemetry.MetricCheckVotes, nil), batches), int(batches))
	lr.set("check.pair_disagree", "count", reg.counter(telemetry.MetricCheckPairDisagree, nil), 0)
	lr.set("transcript.leaves_per_batch", "leaves", ratio(reg.counter(telemetry.MetricTranscriptLeaves, nil), batches), int(batches))
	lr.set("transcript.dropped", "count", reg.counter(telemetry.MetricTranscriptDropped, nil), 0)

	// control
	lr.set("control.decisions", "count", reg.counter(telemetry.MetricControlDecisions, nil), 0)
	lr.set("control.batch_max.final", "req", reg.after.value(telemetry.MetricControlBatchMax, nil), 0)
	lr.set("control.batch_delay_ms.final", "ms", reg.after.value(telemetry.MetricControlBatchDelayNs, nil)/1e6, 0)

	// cluster
	clusterNames := []string{"cluster.route_ms.p50", "cluster.digest_votes_per_batch", "cluster.failovers",
		"cluster.link_bytes_per_req", "cluster.fwd_bytes_per_req.input", "cluster.fwd_bytes_per_req.result",
		"cluster.fwd_bytes_per_req.digest"}
	if wp.cluster() {
		lr.pct("cluster.route_ms.p50", spansOf(progSpans, "route", w, nil), 0.5)
		routed := reg.counter(telemetry.MetricClusterBatches, nil)
		lr.set("cluster.digest_votes_per_batch", "votes", ratio(reg.counter(telemetry.MetricClusterDigestVotes, nil), routed), int(routed))
		lr.set("cluster.failovers", "count", reg.counter(telemetry.MetricClusterFailovers, nil), 0)
		lr.set("cluster.link_bytes_per_req", "B", ratio(float64(link1-link0), okF), ok)
		for _, plane := range []string{telemetry.ForwardPlaneInput, telemetry.ForwardPlaneResult, telemetry.ForwardPlaneDigest} {
			lr.set("cluster.fwd_bytes_per_req."+plane, "B",
				ratio(reg.counter(telemetry.MetricClusterFwdBytes, map[string]string{"plane": plane}), okF), ok)
		}
	} else {
		lr.notApplicable("ms", clusterNames[0])
		lr.notApplicable("votes", clusterNames[1])
		lr.notApplicable("count", clusterNames[2])
		lr.notApplicable("B", clusterNames[3:]...)
	}

	// runtime
	lr.set("runtime.alloc_kb_per_req", "KiB", ratio(rt1.allocBytes-rt0.allocBytes, okF)/1024, ok)
	lr.set("runtime.gc_cpu_frac", "ratio", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), 0)

	// loadgen
	if wp.openLoop() {
		lr.pct("loadgen.late_ms.p99", ph.lateMS, 0.99)
		lr.set("loadgen.backlog_end", "req", float64(ph.backlogAt), 0)
	} else {
		lr.notApplicable("ms", "loadgen.late_ms.p99")
		lr.notApplicable("req", "loadgen.backlog_end")
	}

	// budget
	rows, rtP50, gap := lt.budget()
	for _, r := range rows {
		lr.set("budget.self_ms."+r.layer, "ms", r.selfMS, len(lt.roundTrip))
	}
	lr.set("budget.roundtrip_ms.p50", "ms", rtP50, len(lt.roundTrip))
	lr.set("budget.unexplained_ms.p50", "ms", gap, len(lt.roundTrip))
	lr.set("budget.tracing_overhead_ms", "ms", median(tracedLat)-median(untracedLat), len(untracedLat))

	res.Metrics = lr.vals
	res.NA = lr.na
	res.Meta["untraced_latency_p50_ms"] = median(untracedLat)
	res.Meta["unlinked_requests"] = lt.unlinked
	if lt.unlinked > 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%d ok requests could not be linked to their batch or handler record", lt.unlinked))
	}
	if v := lr.vals["check.pair_disagree"].Value; v != 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("false dissent: %g pairwise disagreements on benign input", v))
	}
	if err := writeSpans(c.base()+"-spans.jsonl", lt.spans); err != nil {
		res.Findings = append(res.Findings, "writing spans: "+err.Error())
	}
	fmt.Print(fmtBudget(rows, rtP50, gap))
	if len(lr.errs) > 0 {
		return res, fmt.Errorf("per-layer metrics: %v", lr.errs)
	}
	return res, c.openLoopCheck(ph, res)
}
