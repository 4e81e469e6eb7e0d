package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/hier"
	"hisvsim/internal/lru"
	"hisvsim/internal/noise"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/qasm"
	"hisvsim/internal/service"
	"hisvsim/internal/sv"
)

// The probes are the layer half of a traced run: each calls one layer of the
// program directly, at a fixed seeded size, and reports its time, its work
// as a count and — where the program keeps one — its own counter. They are
// the same in every traced run whatever the workload, so a layer's number
// can be read next to any end-to-end number; the counts repeat exactly at a
// fixed seed.

// layerMetrics accumulates per-layer values by name.
type layerMetrics map[string]float64

// timeIt returns the wall time of fn in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// durMS converts a duration to fractional milliseconds.
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf runs fn n times and returns the median wall time in seconds.
func medianOf(n int, fn func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = timeIt(fn)
	}
	return median(ts)
}

// allocsDuring reports the heap objects and bytes allocated while fn runs
// (process-wide: call it only while nothing else is running).
func allocsDuring(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// runProbes runs every probe.
func runProbes(p params) (layerMetrics, error) {
	m := layerMetrics{}
	for _, probe := range []func(params, layerMetrics) error{
		probeCircuit, probePartitionAndHier, probeFuse, probeKernels,
		probeReadout, probeLRU, probeService, probeNoise, probeCluster,
	} {
		if err := probe(p, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probeCircuit: building, describing and parsing circuits.
func probeCircuit(p params, m layerMetrics) error {
	var cs []*circuit.Circuit
	m["circuit.build_s"] = timeIt(func() { cs = coldHierCircuits(p) })
	m["dag.build_s"] = medianOf(3, func() { dag.FromCircuit(cs[0]) })

	c := serviceCircuit(p, pick(p.toy, serviceQubits, toyQubits), 0)
	m["circuit.fingerprint_us"] = 1e6 * medianOf(51, func() { c.Fingerprint() })
	text := qasm.Write(c)
	m["qasm.body_bytes"] = float64(len(text))
	var perr error
	m["qasm.parse_us"] = 1e6 * medianOf(51, func() { _, perr = qasm.ParseToCircuit(text) })
	return perr
}

// probePartitionAndHier: the three partitioners on the cold-hier QFT, then
// the hierarchical executor on the dagP plan with the program's kernel
// recorder attached, then the paper's comparison — dagP, DFS, Nat and the
// flat sweep through the public entry point, in the same process.
func probePartitionAndHier(p params, m layerMetrics) error {
	c := coldHierCircuits(p)[0]
	lm := pick(p.toy, coldHierLm, toyLm)
	g := dag.FromCircuit(c)
	var dagp *partition.Plan
	for _, name := range []string{"dagp", "dfs", "nat"} {
		strat, err := core.NewStrategy(name, hierOptions(p, name).Seed)
		if err != nil {
			return err
		}
		var pl *partition.Plan
		m["partition."+name+"_s"] = timeIt(func() { pl, err = strat.Partition(g, lm) })
		if err != nil {
			return fmt.Errorf("partition %s: %w", name, err)
		}
		pm := partition.ComputeMetrics(pl)
		m["partition.parts_"+name] = float64(pm.Parts)
		m["partition.qubit_churn_"+name] = float64(pm.QubitChurn)
		m["partition.relayout_mb_r4_"+name] = float64(partition.RelayoutBytes(pl, 4)) / (1 << 20)
		if name == "dagp" {
			dagp = pl
			m["partition.max_wset"] = float64(pm.MaxWorkingSet)
		}
	}

	// One worker, so the kernel seconds the program's recorder reports
	// tile the executor's wall time instead of summing across goroutines.
	rec := prof.NewRecorder()
	st := sv.NewState(c.NumQubits)
	st.Prof, st.Workers = rec, 1
	var hm *hier.Metrics
	var err error
	m["hier.execute_s"] = timeIt(func() {
		hm, err = hier.ExecutePlan(dagp, st, hier.Options{Ctx: context.Background(), Fuse: true, Workers: 1})
	})
	if err != nil {
		return err
	}
	m["hier.parts"] = float64(hm.Parts)
	m["hier.sweeps"] = float64(hm.Sweeps)
	m["hier.bytes_moved"] = float64(hm.BytesMoved)
	m["hier.inner_ops"] = float64(hm.InnerOps)
	// What the executor spends outside the kernels: gather/scatter, part
	// preparation and the per-sweep inner-vector allocations.
	m["hier.overhead_s"] = m["hier.execute_s"] - rec.Seconds()
	recordKernels(m, rec)

	// Time to solution per variant: one warm-up pass over all variants,
	// then one timed pass, back to back so drift hits them alike.
	variants := map[string]core.Options{
		"dagp": hierOptions(p, "dagp"), "dfs": hierOptions(p, "dfs"), "nat": hierOptions(p, "nat"),
		"flat": {Backend: "flat"}, "default": {},
	}
	for rep := 0; rep < 2; rep++ {
		for _, name := range []string{"dagp", "dfs", "nat", "flat", "default"} {
			var res *core.Result
			objects, bytes := 0.0, 0.0
			t := timeIt(func() {
				objects, bytes = allocsDuring(func() {
					res, err = core.SimulateContext(context.Background(), c, variants[name])
				})
			})
			if err != nil {
				return fmt.Errorf("variant %s: %w", name, err)
			}
			m["hier.tts_"+name+"_s"] = t // the second pass overwrites the first
			if name == "default" {
				m["hier.default_parts"] = float64(res.Hier.Parts)
				m["core.allocs_per_sim"], m["core.alloc_mb_per_sim"] = objects, bytes/(1<<20)
			}
		}
	}
	m["hier.speedup_vs_flat"] = m["hier.tts_flat_s"] / m["hier.tts_dagp_s"]
	return nil
}

// recordKernels folds the program's own kernel profile (source: program)
// into per-class seconds plus totals. Fused execution of these circuits
// issues dense and diagonal kernels only (a controlled phase is a diagonal);
// the controlled class is covered by the sv.cx_gbps micro-timing. The bytes are the kernels' traffic
// model — computed from array sizes, not counted by hardware.
func recordKernels(m layerMetrics, rec *prof.Recorder) {
	var calls, bytes, secs float64
	for _, k := range rec.Snapshot() {
		if k.Kernel == prof.Dense.String() || k.Kernel == prof.Diagonal.String() {
			m["sv."+k.Kernel+"_s"] += k.Seconds
		}
		calls += float64(k.Calls)
		bytes += float64(k.Bytes)
		secs += k.Seconds
	}
	m["sv.kernel_calls"] += calls
	m["sv.kernel_bytes"] += bytes
	if secs > 0 {
		m["sv.kernel_gbps"] = bytes / secs / 1e9
	}
}

// probeFuse: the fusion compiler on the cold-hier QFT and template
// re-specialisation on the sweep ansatz.
func probeFuse(p params, m layerMetrics) error {
	c := coldHierCircuits(p)[0]
	var blocks []fuse.Block
	var err error
	m["fuse.compile_s"] = timeIt(func() {
		if blocks, err = fuse.Fuse(c.Gates, fuse.Options{}); err == nil {
			fuse.Plan(blocks, c.NumQubits)
		}
	})
	if err != nil {
		return err
	}
	m["fuse.blocks"] = float64(len(blocks))
	m["fuse.gates_per_block"] = float64(fuse.GateCount(blocks)) / float64(len(blocks))

	tmpl, err := fuse.CompileTemplate(circuit.QAOAAnsatz(pick(p.toy, sweepQubits, toyQubits), 2), fuse.Options{})
	if err != nil {
		return err
	}
	env := map[string]float64{"gamma0": 0.3, "beta0": 0.5, "gamma1": 0.7, "beta1": 0.2}
	m["fuse.specialize_us"] = 1e6 * medianOf(51, func() { _, err = tmpl.Specialize(env) })
	m["fuse.touched_blocks"] = float64(tmpl.TouchedBlocks())
	return err
}

// probeKernels: single kernels on a 2^kernelQubits state, as effective
// bandwidth (one read and one write of the state per sweep), plus state
// allocation and the sampler.
func probeKernels(p params, m layerMetrics) error {
	n := pick(p.toy, 22, toyQubits)
	var st *sv.State
	m["sv.state_alloc_s"] = timeIt(func() { st = sv.NewState(n) })
	sweepBytes := 2 * 16 * float64(int64(1)<<n)
	gbps := func(gs ...gate.Gate) (float64, error) {
		var err error
		t := medianOf(3, func() { err = st.ApplyGates(gs) })
		return sweepBytes / t / 1e9, err
	}
	var err error
	if m["sv.h_low_gbps"], err = gbps(gate.H(0)); err != nil {
		return err
	}
	if m["sv.h_high_gbps"], err = gbps(gate.H(n - 1)); err != nil {
		return err
	}
	if m["sv.cx_gbps"], err = gbps(gate.CX(0, n-1)); err != nil {
		return err
	}
	// One dense five-qubit block, the default fusion width.
	var five []gate.Gate
	for q := 0; q < 5; q++ {
		five = append(five, gate.H(q), gate.RX(0.3+0.1*float64(q), q))
	}
	for q := 0; q < 4; q++ {
		five = append(five, gate.CX(q, q+1))
	}
	blocks, err := fuse.Fuse(five, fuse.Options{})
	if err != nil {
		return err
	}
	t := medianOf(3, func() { err = fuse.Apply(st, blocks) })
	m["sv.fused5_gbps"] = float64(len(blocks)) * sweepBytes / t / 1e9
	if err != nil {
		return err
	}

	small, err := sv.Run(serviceCircuit(p, pick(p.toy, serviceQubits, toyQubits), 0))
	if err != nil {
		return err
	}
	var sampler *sv.Sampler
	m["sv.sampler_build_ms"] = 1e3 * medianOf(11, func() { sampler = sv.NewSampler(small) })
	rng := rand.New(rand.NewSource(p.subSeed(800)))
	m["sv.sample_1k_us"] = 1e6 * medianOf(51, func() { sampler.Counts(1000, rng) })
	return nil
}

// probeReadout: deriving shots and an observable from a finished state.
func probeReadout(p params, m layerMetrics) error {
	st, err := sv.Run(serviceCircuit(p, pick(p.toy, serviceQubits, toyQubits), 0))
	if err != nil {
		return err
	}
	sampler := sv.NewSampler(st)
	spec := core.ReadoutSpec{Shots: 1000, Seed: p.subSeed(801), Observables: []core.Observable{{Paulis: "XZ", Qubits: []int{0, 1}}}}
	m["core.readout_ms"] = 1e3 * medianOf(51, func() { core.EvaluateState(st, sampler, spec) })
	return nil
}

// probeLRU: the byte-budgeted cache alone, under a Zipf key stream over four
// times as many keys as it holds.
func probeLRU(p params, m layerMetrics) error {
	const keys, capacity, ops = 64, 16, 20000
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("circuit-%02d", i)
	}
	cache := lru.New(capacity)
	evictions := 0
	cache.Evicted = func(string, any, int64) { evictions++ }
	z := rand.NewZipf(rand.New(rand.NewSource(p.subSeed(802))), zipfS, 1, keys-1)
	hits, gets, puts := 0, 0.0, 0.0
	for i := 0; i < ops; i++ {
		k := names[z.Uint64()]
		t0 := time.Now()
		_, ok := cache.Get(k)
		gets += float64(time.Since(t0).Nanoseconds())
		if ok {
			hits++
			continue
		}
		t0 = time.Now()
		cache.Put(k, i, 1)
		puts += float64(time.Since(t0).Nanoseconds())
	}
	m["lru.get_ns"] = gets / ops
	m["lru.put_ns"] = puts / float64(ops-hits)
	m["lru.hit_ratio"] = float64(hits) / ops
	m["lru.evictions"] = float64(evictions)
	return nil
}

// probeService: a fresh service answering a fixed job list — per circuit one
// miss and then hits, over HTTP and through the Go surface — with the
// program's own counters read back.
func probeService(p params, m layerMetrics) error {
	const circuits, hitsEach = 3, 30
	n := pick(p.toy, serviceQubits, toyQubits)
	srv := newServer(service.Config{Workers: p.procs})
	defer srv.close()
	var httpMS, directUS, decodeUS, submitUS, waited, elapsed, bytes []float64
	var objects, allocBytes float64
	for i := 0; i < circuits; i++ {
		job, err := newIdealJob(p, serviceCircuit(p, n, i), i, pick(p.toy, jobShots, 100))
		if err != nil {
			return err
		}
		for k := 0; k <= hitsEach; k++ { // k = 0 is the miss
			reply, raw, ms, err := srv.api.run(job.body.with(int64(k)))
			if err == nil {
				err = job.check(reply)
			}
			if err != nil {
				return fmt.Errorf("service probe: %w", err)
			}
			if k > 0 {
				httpMS, bytes = append(httpMS, ms), append(bytes, float64(len(raw)))
			}
		}
		body := job.body.with(7)
		var req *service.Request
		for k := 0; k < hitsEach; k++ {
			var err error
			decodeUS = append(decodeUS, 1e6*timeIt(func() { req, err = service.ParseRequest(body) }))
			if err != nil {
				return err
			}
			var id string
			submitUS = append(submitUS, 1e6*timeIt(func() { id, err = srv.svc.SubmitContext(context.Background(), *req) }))
			if err == nil {
				_, err = srv.svc.Wait(context.Background(), id)
			}
			if err != nil {
				return err
			}
		}
		o, b := allocsDuring(func() {
			for k := 0; k < hitsEach; k++ {
				var res *service.Result
				var err error
				directUS = append(directUS, 1e6*timeIt(func() { res, err = srv.svc.Do(context.Background(), *req) }))
				if err == nil {
					waited, elapsed = append(waited, durMS(res.Waited)), append(elapsed, durMS(res.Elapsed))
				}
			}
		})
		objects, allocBytes = objects+o, allocBytes+b
	}
	stats := srv.svc.Stats()
	m["service.simulations"] = float64(stats.Simulations)
	m["service.cache_hits"] = float64(stats.CacheHits)
	m["service.cache_misses"] = float64(stats.CacheMisses)
	m["service.http.decode_us"] = median(decodeUS)
	m["service.submit_us"] = median(submitUS)
	m["service.do_direct_p50_us"] = median(directUS)
	m["service.http_p50_us"] = 1e3 * median(httpMS)
	m["service.http.overhead_us"] = m["service.http_p50_us"] - m["service.do_direct_p50_us"]
	m["service.http.result_bytes"] = median(bytes)
	m["service.queue_wait_ms"] = median(waited)
	m["service.execute_ms"] = median(elapsed)
	m["service.allocs_per_job"] = objects / float64(len(directUS))
	m["service.alloc_kb_per_job"] = allocBytes / 1024 / float64(len(directUS))
	return nil
}

// probeNoise: the trajectory engine directly — compile, one trajectory, one
// ensemble — and the same ensemble as a service job, then one sweep job for
// the template-compile counter.
func probeNoise(p params, m layerMetrics) error {
	n, traj := pick(p.toy, noisyQubits, 6), 64
	c := circuit.Ising(n, 3)
	model := noise.Global(noise.Depolarizing(0.01))
	var plan *noise.Plan
	var err error
	m["noise.compile_ms"] = 1e3 * timeIt(func() { plan, err = noise.Compile(c, model, noise.CompileOptions{Fuse: true}) })
	if err != nil {
		return err
	}
	m["noise.locations"] = float64(plan.Locations())
	m["noise.blocks"] = float64(plan.Blocks())
	rng := rand.New(rand.NewSource(p.subSeed(803)))
	m["noise.traj_ms"] = 1e3 * medianOf(21, func() { _, _, err = plan.RunTrajectory(rng) })
	if err != nil {
		return err
	}
	rec := prof.NewRecorder()
	cfg := noise.RunConfig{
		Trajectories: traj, Seed: p.subSeed(804), Shots: 128,
		Observables: []sv.PauliString{{Ops: "ZZ", Qubits: []int{0, 1}}},
	}
	m["noise.ensemble_s"] = timeIt(func() {
		_, err = noise.RunEnsemble(prof.WithRecorder(context.Background(), rec), plan, cfg)
	})
	if err != nil {
		return err
	}
	for _, k := range rec.Snapshot() {
		if k.Kernel == prof.Kraus.String() {
			m["sv.kraus_s"] += k.Seconds
		}
	}

	srv := newServer(service.Config{Workers: p.procs})
	defer srv.close()
	body, err := noisyBody(n, traj, 128, cfg.Seed)
	if err != nil {
		return err
	}
	if _, _, _, err = srv.api.run(body); err != nil { // compiles and caches the plan
		return err
	}
	_, _, jobMS, err := srv.api.run(body)
	if err != nil {
		return err
	}
	m["service.batch_overhead_ratio"] = jobMS / 1e3 / m["noise.ensemble_s"]

	toy := p
	toy.toy = true
	sweep, err := setupServiceSweep(toy)
	if err != nil {
		return err
	}
	defer sweep.close()
	col := newCollector()
	sweep.round(col, nil)
	sweep.round(col, nil)
	if col.failed > 0 {
		return fmt.Errorf("sweep probe: %v", col.firstErrs)
	}
	m["service.trajectories"] = float64(srv.svc.Stats().Trajectories)
	m["service.template_compiles"] = float64(sweep.(*batchInstance).srv.svc.Stats().TemplateCompiles)
	return nil
}

// probeCluster: one fanned-out ensemble with the coordinator's own stage
// trace, the identical request on a single node, then routed cache-hit jobs
// over a skewed three-circuit mix (every repeat must land on the worker
// that already holds the state).
func probeCluster(p params, m layerMetrics) error {
	in, err := setupClusterFanout(p)
	if err != nil {
		return err
	}
	defer in.close()
	f := in.(*fanoutInstance)
	col, tr := newCollector(), newTracer()
	for i := 0; i < 2; i++ {
		in.round(col, tr)
	}
	if col.failed > 0 {
		return fmt.Errorf("cluster probe: %v", col.firstErrs)
	}
	stages := summarize(tr.snapshot(), "op").selfMS
	m["cluster.plan_ms"] = stages["program.plan"]
	m["cluster.fanout_ms"] = stages["program.fanout"]
	m["cluster.merge_ms"] = stages["program.merge"]
	m["cluster.subjobs"] = median(col.side["subjobs"])
	m["cluster.retries"] = sum(col.side["retries"])
	m["cluster.fanout_overhead"] = median(col.latMS) / median(col.side["single_ms"])

	const circuits, jobs = 3, 60
	n := pick(p.toy, serviceQubits, toyQubits)
	var mix []idealJob
	for i := 0; i < circuits; i++ {
		j, err := newIdealJob(p, serviceCircuit(p, n, i), i, 128)
		if err != nil {
			return err
		}
		mix = append(mix, j)
	}
	hits := 0
	wall := timeIt(func() {
		for i := 0; i < jobs && err == nil; i++ {
			j := mix[[]int{0, 0, 0, 1, 1, 2}[i%6]]
			var reply *jobReply
			if reply, _, _, err = f.fleet.api.run(j.body.with(int64(i))); err == nil {
				if err = j.check(reply); err == nil && reply.Result.CacheHit {
					hits++
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("cluster routed probe: %w", err)
	}
	m["cluster.routing_hit_ratio"] = float64(hits) / float64(jobs-circuits)
	m["cluster.routed_jobs_per_s"] = jobs / wall
	return nil
}
