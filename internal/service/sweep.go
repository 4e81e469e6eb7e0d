package service

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/fuse"
)

// This file is the service half of the v3 template surface: binding-grid
// expansion (SweepSpec), the template-fingerprint-keyed compile cache that
// makes "M bindings = 1 fusion compile" hold ACROSS jobs as well as within
// one, and the executors for KindSweep, KindOptimize and bound KindRun. A
// sweep or optimize job owns no loop: it resolves its cached template or
// trajectory plan (engineFor) and a width from the token pool, and hands both
// to core.RunSweep or core.RunOptimize; what a sweep retains when it finishes
// is the runner's table (core.SweepReport), from which the wire encoder
// renders points.

// SweepSpec names a sweep job's binding grid. Exactly one of Bindings or
// Grid must be set.
type SweepSpec struct {
	// Bindings is the explicit point list, evaluated in order.
	Bindings []map[string]float64
	// Grid gives per-symbol value lists. By default the points are the
	// cartesian product in sorted symbol order (last symbol fastest); with
	// Zip the columns must have equal length L and yield L points
	// (column i of every symbol forms point i).
	Grid map[string][]float64
	Zip  bool
}

// Expand resolves the spec to its explicit binding list, rejecting
// malformed grids (both forms set, zip length mismatch, products over
// limit) with errors that name the offending symbols. An empty spec
// expands to no points, which core.Admit refuses as an empty sweep.
// Exported so a cluster coordinator can expand a grid once and split the
// points into contiguous sub-ranges.
func (sp *SweepSpec) Expand(limit int) ([]map[string]float64, error) {
	if len(sp.Bindings) > 0 && len(sp.Grid) > 0 {
		return nil, fmt.Errorf("sweep: set Bindings or Grid, not both")
	}
	if len(sp.Bindings) > 0 || len(sp.Grid) == 0 {
		return sp.Bindings, nil
	}
	syms := make([]string, 0, len(sp.Grid))
	for s := range sp.Grid {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		if len(sp.Grid[s]) == 0 {
			return nil, fmt.Errorf("sweep: symbol %q has no grid values", s)
		}
		for _, v := range sp.Grid[s] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sweep: non-finite grid value %v for symbol %q", v, s)
			}
		}
	}
	if sp.Zip {
		want := len(sp.Grid[syms[0]])
		for _, s := range syms[1:] {
			if len(sp.Grid[s]) != want {
				return nil, fmt.Errorf("sweep: grid-size mismatch: symbol %q has %d values, %q has %d",
					syms[0], want, s, len(sp.Grid[s]))
			}
		}
		if want > limit {
			return nil, fmt.Errorf("sweep: grid has %d points, limit %d", want, limit)
		}
		out := make([]map[string]float64, want)
		for i := range out {
			env := make(map[string]float64, len(syms))
			for _, s := range syms {
				env[s] = sp.Grid[s][i]
			}
			out[i] = env
		}
		return out, nil
	}
	total := 1
	for _, s := range syms {
		if total > limit/len(sp.Grid[s]) {
			return nil, fmt.Errorf("sweep: cartesian grid exceeds %d points", limit)
		}
		total *= len(sp.Grid[s])
	}
	out := make([]map[string]float64, 0, total)
	idx := make([]int, len(syms))
	for {
		env := make(map[string]float64, len(syms))
		for i, s := range syms {
			env[s] = sp.Grid[s][idx[i]]
		}
		out = append(out, env)
		// Odometer increment, last symbol fastest.
		i := len(syms) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(sp.Grid[syms[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// templateEntry wraps a compiled fuse.Template for the plan LRU.
type templateEntry struct {
	tpl *fuse.Template
}

// cost estimates a template's resident bytes: the fused payloads plus the
// shared kernel index tables (roughly one int per amplitude touched,
// approximated by the payload size again).
func (e *templateEntry) cost() int64 {
	var b int64 = 1024
	for i := range e.tpl.Blocks {
		b += int64(len(e.tpl.Blocks[i].Diag)) * 16
		b += int64(len(e.tpl.Blocks[i].Matrix.Data)) * 16
		b += int64(len(e.tpl.Blocks[i].Gates)) * 256
	}
	return 2 * b
}

// templateFor returns the compiled template for the job circuit's TEMPLATE
// fingerprint (structure + symbol names, not binding values), compiling on
// miss. Templates live beside trajectory plans in the dedicated plan LRU:
// they are small, hot, and must survive bursts of giant state entries.
// Every real compile bumps Stats.TemplateCompiles — the counter the sweep
// acceptance gate watches — and concurrent misses share one compile.
func (s *Service) templateFor(j *job) (*fuse.Template, bool, error) {
	e, hit, err := cachedCompute(s, j, s.planCache, "tpl|"+j.req.Circuit.Fingerprint(), func() (*templateEntry, error) {
		s.m.templateCompiles.Inc()
		tpl, err := fuse.CompileTemplate(j.req.Circuit, fuse.Options{})
		if err != nil {
			return nil, err
		}
		return &templateEntry{tpl: tpl}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return e.tpl, hit, nil
}

// templateEntryFor returns the cached bound state for (template, binding):
// the template compiles once per fingerprint, the state once per binding
// digest, and repeats of the same bound run cost sampling only — the same
// economics stateFor gives concrete circuits. Options.Workers is not part
// of the key: every kernel is bit-identical across worker counts.
func (s *Service) templateEntryFor(j *job, env map[string]float64) (*cacheEntry, bool, error) {
	key := fmt.Sprintf("tplrun|%s|%s", j.req.Circuit.Fingerprint(), circuit.BindingDigest(env))
	return cachedCompute(s, j, s.cache, key, func() (*cacheEntry, error) {
		j.trace.Begin(stageCompile)
		tpl, _, err := s.templateFor(j)
		if err != nil {
			return nil, err
		}
		s.m.simulations.Inc()
		j.trace.Begin(stageSimulate)
		st, err := tpl.Run(env, j.req.Options.Workers)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{state: st}, nil
	})
}

// engineFor takes a template job's engine from the caches under the rule the
// library's compile keeps: the trajectory plan under a noise model, the
// template unless that plan has effective noise. compiles counts the caches
// this job missed.
func (s *Service) engineFor(j *job) (eng core.SweepEngine, compiles int, err error) {
	j.trace.Begin(stageCompile)
	var hit bool
	if !j.req.Noise.IsZero() {
		if eng.Plan, hit, err = s.noisePlanFor(j); err != nil {
			return eng, 0, err
		}
		if !hit {
			compiles++
		}
		if !eng.Plan.NoiseFree() {
			return eng, compiles, nil
		}
	}
	if eng.Template, hit, err = s.templateFor(j); err != nil {
		return eng, 0, err
	}
	if !hit {
		compiles++
	}
	return eng, compiles, nil
}

// executeTemplate runs a sweep or an optimizer loop over the job's engine,
// as wide as the token pool allows (widen). Both name and count the job by
// KindRun's rule: the ideal backend when the engine replays a template, the
// trajectory engine, whose trajectories the ledger counts, when it has none.
// Compiles is 1 on a cold cache for any grid size (2 under a zero-effect
// model: plan and template), 0 over a cached engine.
func (s *Service) executeTemplate(j *job) (*Result, error) {
	start := time.Now()
	req := j.req
	width, release := s.widen(req.Options.Workers)
	defer release()
	eng, compiles, err := s.engineFor(j)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: req.Kind, Backend: j.idealBackend, NumQubits: req.Circuit.NumQubits, CacheHit: compiles == 0}
	if eng.Template == nil {
		res.Backend = BackendTrajectory
	}
	s.setBackend(j, res.Backend)
	j.trace.Begin(stageExecute)
	var evaluations int
	if req.Kind == KindSweep {
		rep, err := core.RunSweep(j.ctx, eng, req.Readouts, req.Sweep.Bindings, width)
		if err != nil {
			return nil, err
		}
		rep.Compiles, rep.Elapsed = compiles, time.Since(start)
		res.Sweep, evaluations, res.Readouts.Trajectories, res.Elapsed = rep, rep.Points, rep.Trajectories, rep.Elapsed
	} else {
		rep, err := core.RunOptimize(j.ctx, eng, *req.Optimize, width)
		if err != nil {
			return nil, err
		}
		rep.Compiles, rep.Elapsed = compiles, time.Since(start)
		res.Optimize, evaluations, res.Readouts.Trajectories, res.Elapsed = rep, rep.Evaluations, rep.Trajectories, rep.Elapsed
	}
	if eng.Template == nil {
		s.m.trajectories.Add(int64(res.Readouts.Trajectories) * int64(evaluations))
	}
	res.Waited = j.started.Sub(j.submitted)
	return res, nil
}
