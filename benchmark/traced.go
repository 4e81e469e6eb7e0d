package main

import (
	"fmt"
	"runtime"
	"strings"
)

// perLayer is every metric a traced run reports. Three sources:
//
//   - span.*, program.*, loop.*, trace.* and proc.* come from this workload's
//     own traced loop: mean self time per operation of each benchmark span,
//     the program's own /trace stages (source: program), what the loop's
//     replies said, and the process totals. A span the workload never opens
//     reads 0.
//   - everything else comes from the probes (probes.go), which are the same
//     in every traced run.
//
// Counts that must repeat exactly at a fixed seed are marked "count".
var perLayer = []metricDef{
	// This workload's traced loop.
	{"trace.overhead_ratio", "ratio", "lower"}, // traced ÷ untraced median operation, same process
	{"trace.untiled_ratio", "ratio", "lower"},  // share of operation time no layer span covers
	{"trace.spans", "spans", "lower"},
	{"span.validate_ms", "ms", "lower"},
	{"span.dag_ms", "ms", "lower"},
	{"span.partition_ms", "ms", "lower"},
	{"span.alloc_ms", "ms", "lower"},
	{"span.execute_ms", "ms", "lower"},
	{"span.http_ms", "ms", "lower"},
	{"span.decode_ms", "ms", "lower"},
	{"span.fingerprint_ms", "ms", "lower"},
	{"span.submit_ms", "ms", "lower"},
	{"span.wait_ms", "ms", "lower"},
	{"program.queue_wait_ms", "ms", "lower"},
	{"program.compile_ms", "ms", "lower"},
	{"program.specialize_ms", "ms", "lower"},
	{"program.execute_ms", "ms", "lower"},
	{"program.simulate_ms", "ms", "lower"},
	{"program.trajectories_ms", "ms", "lower"},
	{"program.sample_ms", "ms", "lower"},
	{"program.plan_ms", "ms", "lower"},
	{"program.fanout_ms", "ms", "lower"},
	{"program.merge_ms", "ms", "lower"},
	{"loop.hit_ratio", "ratio", "higher"},
	{"loop.hit_p50_ms", "ms", "lower"},
	{"loop.miss_p50_ms", "ms", "lower"},
	{"loop.queue_wait_ms", "ms", "lower"},
	{"loop.execute_ms", "ms", "lower"},
	{"loop.result_bytes", "B", "lower"},
	{"loop.fanout_overhead", "ratio", "lower"},
	{"loop.allocs_per_op", "allocs", "lower"},
	{"loop.alloc_kb_per_op", "KB", "lower"},
	{"proc.gc_cycles", "cycles", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},

	// Probes: circuit, qasm, dag.
	{"circuit.build_s", "s", "lower"},
	{"circuit.fingerprint_us", "us", "lower"},
	{"qasm.parse_us", "us", "lower"},
	{"qasm.body_bytes", "count", "lower"},
	{"dag.build_s", "s", "lower"},
	// partition.
	{"partition.dagp_s", "s", "lower"},
	{"partition.dfs_s", "s", "lower"},
	{"partition.nat_s", "s", "lower"},
	{"partition.parts_dagp", "count", "lower"},
	{"partition.parts_dfs", "count", "lower"},
	{"partition.parts_nat", "count", "lower"},
	{"partition.max_wset", "count", "lower"},
	{"partition.qubit_churn_dagp", "count", "lower"},
	{"partition.qubit_churn_dfs", "count", "lower"},
	{"partition.qubit_churn_nat", "count", "lower"},
	{"partition.relayout_mb_r4_dagp", "MB", "lower"},
	{"partition.relayout_mb_r4_dfs", "MB", "lower"},
	{"partition.relayout_mb_r4_nat", "MB", "lower"},
	// fuse.
	{"fuse.compile_s", "s", "lower"},
	{"fuse.blocks", "count", "lower"},
	{"fuse.gates_per_block", "ratio", "higher"},
	{"fuse.specialize_us", "us", "lower"},
	{"fuse.touched_blocks", "count", "lower"},
	// hier.
	{"hier.execute_s", "s", "lower"},
	{"hier.parts", "count", "lower"},
	{"hier.sweeps", "count", "lower"},
	{"hier.bytes_moved", "count", "lower"},
	{"hier.inner_ops", "count", "lower"},
	{"hier.overhead_s", "s", "lower"},
	{"hier.tts_dagp_s", "s", "lower"},
	{"hier.tts_dfs_s", "s", "lower"},
	{"hier.tts_nat_s", "s", "lower"},
	{"hier.tts_flat_s", "s", "lower"},
	{"hier.tts_default_s", "s", "lower"},
	{"hier.speedup_vs_flat", "ratio", "higher"},
	{"hier.default_parts", "count", "lower"},
	// sv: the program's kernel profile of the hier probe, then micro-timings.
	{"sv.dense_s", "s", "lower"},
	{"sv.diagonal_s", "s", "lower"},
	{"sv.kraus_s", "s", "lower"},
	{"sv.kernel_calls", "count", "lower"},
	{"sv.kernel_bytes", "count", "lower"},
	{"sv.kernel_gbps", "GB/s", "higher"},
	{"sv.pct_of_triad", "%", "higher"},
	{"sv.h_low_gbps", "GB/s", "higher"},
	{"sv.h_high_gbps", "GB/s", "higher"},
	{"sv.cx_gbps", "GB/s", "higher"},
	{"sv.fused5_gbps", "GB/s", "higher"},
	{"sv.state_alloc_s", "s", "lower"},
	{"sv.sampler_build_ms", "ms", "lower"},
	{"sv.sample_1k_us", "us", "lower"},
	// machine.
	{"machine.cal_ms", "ms", "lower"}, // the reference kernel of calibrate.go
	{"machine.copy_gbps", "GB/s", "higher"},
	{"machine.triad_gbps", "GB/s", "higher"},
	// core.
	{"core.readout_ms", "ms", "lower"},
	{"core.allocs_per_sim", "allocs", "lower"},
	{"core.alloc_mb_per_sim", "MB", "lower"},
	// lru.
	{"lru.get_ns", "ns", "lower"},
	{"lru.put_ns", "ns", "lower"},
	{"lru.hit_ratio", "ratio", "higher"},
	{"lru.evictions", "count", "lower"},
	// service.
	{"service.simulations", "count", "lower"},
	{"service.cache_hits", "count", "higher"},
	{"service.cache_misses", "count", "lower"},
	{"service.trajectories", "count", "lower"},
	{"service.template_compiles", "count", "lower"},
	{"service.http.decode_us", "us", "lower"},
	{"service.submit_us", "us", "lower"},
	{"service.do_direct_p50_us", "us", "lower"},
	{"service.http_p50_us", "us", "lower"},
	{"service.http.overhead_us", "us", "lower"},
	{"service.http.result_bytes", "B", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.execute_ms", "ms", "lower"},
	{"service.allocs_per_job", "allocs", "lower"},
	{"service.alloc_kb_per_job", "KB", "lower"},
	{"service.batch_overhead_ratio", "ratio", "lower"},
	// noise.
	{"noise.compile_ms", "ms", "lower"},
	{"noise.traj_ms", "ms", "lower"},
	{"noise.ensemble_s", "s", "lower"},
	{"noise.locations", "count", "lower"},
	{"noise.blocks", "count", "lower"},
	// cluster.
	{"cluster.subjobs", "count", "lower"},
	{"cluster.plan_ms", "ms", "lower"},
	{"cluster.fanout_ms", "ms", "lower"},
	{"cluster.merge_ms", "ms", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.routing_hit_ratio", "ratio", "higher"},
	{"cluster.routed_jobs_per_s", "1/s", "higher"},
	{"cluster.fanout_overhead", "ratio", "lower"},
}

// measureTraced is the traced run: set up once, run the workload untraced
// and then traced for a quarter of -seconds each (their ratio is the
// tracing overhead), write the spans out, then run the probes. End-to-end
// metrics are never taken from here.
func measureTraced(cfg config, w *workload, p params, mach *machineInfo) (result, []string, error) {
	cal := referenceKernelMS(p)
	inst, err := w.setup(p)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	warm, plain, col := newCollector(), newCollector(), newCollector()
	inst.round(warm, nil)
	timedLoop(inst, plain, nil, cfg.seconds/4)

	tr := newTracer()
	var rounds int
	objects, bytes := allocsDuring(func() { rounds, _ = timedLoop(inst, col, tr, cfg.seconds/4) })
	finish(inst, col)
	inst.close()

	spans := tr.snapshot()
	path, err := writeTrace(cfg.outDir, w.name, spans)
	if err != nil {
		return result{}, nil, fmt.Errorf("writing trace: %w", err)
	}
	m := layerMetrics{"trace.spans": float64(len(spans)), "machine.cal_ms": cal}
	ops, direct := summarize(spans, "op"), summarize(spans, "op.direct")
	if base := median(plain.latMS); base > 0 {
		// Cold rounds report the mean of their calls as one sample, so
		// compare like with like: traced samples, not root spans.
		m["trace.overhead_ratio"] = median(col.latMS) / base
	}
	m["trace.untiled_ratio"] = ops.untiled
	staged := float64(max(opsWithStages(spans), 1))
	for _, sum := range []spanSummary{ops, direct} {
		for name, ms := range sum.selfMS {
			if stage, ok := strings.CutPrefix(name, "program."); ok {
				// Stages are fetched for a sample of operations only;
				// scale back to a mean over the operations that have them.
				m["program."+stage+"_ms"] = ms * float64(sum.ops) / staged
			} else {
				m["span."+name+"_ms"] = ms
			}
		}
	}
	hits, misses := float64(len(col.side["hit_ms"])), float64(len(col.side["miss_ms"]))
	if hits+misses > 0 {
		m["loop.hit_ratio"] = hits / (hits + misses)
	}
	m["loop.hit_p50_ms"] = median(col.side["hit_ms"])
	m["loop.miss_p50_ms"] = median(col.side["miss_ms"])
	m["loop.queue_wait_ms"] = median(col.side["waited_ms"])
	m["loop.execute_ms"] = median(col.side["elapsed_ms"])
	m["loop.result_bytes"] = median(col.side["result_bytes"])
	if single := median(col.side["single_ms"]); single > 0 {
		m["loop.fanout_overhead"] = median(col.latMS) / single
	}
	if n := float64(col.attempted); n > 0 {
		m["loop.allocs_per_op"], m["loop.alloc_kb_per_op"] = objects/n, bytes/1024/n
	}

	probes, err := runProbes(p)
	if err != nil {
		return result{}, nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	// Bandwidth last: its arrays (4x the last-level cache each) would
	// otherwise leave the collector a heap goal of gigabytes, and every
	// probe after it would allocate from fresh, unfaulted pages.
	mach.measureStream(pick(p.toy, int64(streamCapMiB), 1))
	m["machine.copy_gbps"], m["machine.triad_gbps"] = mach.CopyGBps, mach.TriadGBps
	if mach.TriadGBps > 0 {
		m["sv.pct_of_triad"] = 100 * m["sv.kernel_gbps"] / mach.TriadGBps
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.gc_cycles"] = float64(ms.NumGC)
	m["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6

	res := newResult(perLayer, m, warm, plain, col)
	notes := []string{fmt.Sprintf("traced rounds %d, %d spans written to %s", rounds, len(spans), path)}
	for _, c := range []*collector{warm, plain, col} {
		notes = append(notes, c.firstErrs...)
	}
	return res, notes, nil
}

// opsWithStages counts the operations that carry program-reported stages.
func opsWithStages(spans []span) int {
	seen := map[int]bool{}
	for _, s := range spans {
		if s.Source == "program" {
			seen[s.Op] = true
		}
	}
	return len(seen)
}
