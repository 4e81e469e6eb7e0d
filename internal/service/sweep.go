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
// sweep job owns no loop: it resolves its cached template or trajectory plan
// and a width from the token pool, and hands both to core.RunSweep; what it
// retains when it finishes is the runner's table (core.SweepReport), from
// which the wire encoder renders points.

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
// malformed grids (both/neither form set, zip length mismatch, products
// over limit) with errors that name the offending symbols. Exported so a
// cluster coordinator can expand a grid once and split the points into
// contiguous sub-ranges.
func (sp *SweepSpec) Expand(limit int) ([]map[string]float64, error) {
	if len(sp.Bindings) > 0 && len(sp.Grid) > 0 {
		return nil, fmt.Errorf("sweep: set Bindings or Grid, not both")
	}
	if len(sp.Bindings) > 0 {
		return sp.Bindings, nil
	}
	if len(sp.Grid) == 0 {
		return nil, fmt.Errorf("sweep: empty binding grid (set Bindings or Grid)")
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

// validateOptimize checks a KindOptimize request at submit: known method,
// a well-formed objective, a complete-and-known Init, and bounded work —
// all the failures a worker could hit become 400s naming the problem.
func (s *Service) validateOptimize(req Request) error {
	spec := *req.Optimize
	if spec.Method != "" && spec.Method != core.MethodSPSA && spec.Method != core.MethodNelderMead {
		return fmt.Errorf("service: unknown optimizer %q (have %q, %q)", spec.Method, core.MethodSPSA, core.MethodNelderMead)
	}
	if len(spec.Observables) == 0 {
		return fmt.Errorf("service: optimize needs at least one observable (the objective is their weighted sum)")
	}
	roSpec := core.ReadoutSpec{Observables: spec.Observables}
	if err := roSpec.Validate(req.Circuit.NumQubits); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	syms := req.Circuit.Symbols()
	for k, v := range spec.Init {
		known := false
		for _, s := range syms {
			if s == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("service: init binds unknown symbol %q", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("service: non-finite init value %v for symbol %q", v, k)
		}
	}
	if spec.MaxIters > s.cfg.MaxOptimizeIters {
		return fmt.Errorf("service: %d iterations exceeds limit %d", spec.MaxIters, s.cfg.MaxOptimizeIters)
	}
	if spec.Trajectories < 0 {
		return fmt.Errorf("service: negative trajectory count %d", spec.Trajectories)
	}
	if spec.Trajectories > s.cfg.MaxTrajectories {
		return fmt.Errorf("service: %d trajectories exceeds limit %d", spec.Trajectories, s.cfg.MaxTrajectories)
	}
	return nil
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
	mf := j.req.Options.MaxFuseQubits
	e, hit, err := cachedCompute(s, j, s.planCache, fmt.Sprintf("tpl|%s|mf=%d", j.req.Circuit.Fingerprint(), mf), func() (*templateEntry, error) {
		s.m.templateCompiles.Inc()
		tpl, err := fuse.CompileTemplate(j.req.Circuit, fuse.Options{MaxQubits: mf})
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
	key := fmt.Sprintf("tplrun|%s|%s|mf=%d",
		j.req.Circuit.Fingerprint(), circuit.BindingDigest(env), j.req.Options.MaxFuseQubits)
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

// executeSweep evaluates a binding grid through core.RunSweep against the
// cached template (ideal and zero-effect-noise sweeps) or the cached
// trajectory plan (effective noise: one full seeded ensemble per point).
// The job's width — its own worker slot plus what the shared token pool can
// spare, capped by Options.Workers — is the runner's to divide between point
// workers and the kernels inside each. Result.Sweep.Compiles counts the
// fusion compiles THIS job caused (0 when the template was already cached),
// which with a cold cache is exactly 1 for any grid size.
func (s *Service) executeSweep(j *job) (*Result, error) {
	start := time.Now()
	req := j.req
	res := &Result{
		Kind: KindSweep, Backend: j.idealBackend, NumQubits: req.Circuit.NumQubits,
		Waited: j.started.Sub(j.submitted),
	}
	j.trace.Begin(stageCompile)
	width, release := s.widen(req.Options.Workers)
	defer release()

	var eng core.SweepEngine
	compiles := 0
	if !req.Noise.IsZero() {
		var err error
		if eng.Plan, res.CacheHit, err = s.noisePlanFor(j); err != nil {
			return nil, err
		}
		if !res.CacheHit {
			compiles++
		}
	}
	if eng.Plan != nil && !eng.Plan.NoiseFree() {
		res.Backend = BackendTrajectory
	} else {
		tpl, hit, err := s.templateFor(j)
		if err != nil {
			return nil, err
		}
		if !hit {
			compiles++
		}
		if eng.Plan == nil {
			res.CacheHit = hit
		}
		eng.Template = tpl
	}
	s.setBackend(j, res.Backend)
	j.trace.Begin(stageExecute)
	rep, err := core.RunSweep(j.ctx, eng, req.Readouts, req.Sweep.Bindings, width)
	if err != nil {
		return nil, err
	}
	if eng.Template == nil {
		s.m.trajectories.Add(int64(rep.Trajectories) * int64(rep.Points))
	}
	rep.Compiles = compiles
	rep.Elapsed = time.Since(start)
	res.Sweep = rep
	res.Trajectories = rep.Trajectories
	res.Elapsed = time.Since(start)
	return res, nil
}

// executeOptimize runs the server-side variational loop. The loop owns its
// template (compiled once inside core.OptimizeContext — counted here so
// the stats ledger stays truthful); its trajectory work is credited like
// any ensemble's.
func (s *Service) executeOptimize(j *job) (*Result, error) {
	start := time.Now()
	req := j.req
	backendName := j.idealBackend
	if !req.Noise.IsZero() {
		backendName = BackendTrajectory
	}
	s.setBackend(j, backendName)
	opts := req.Options
	opts.Noise = req.Noise
	s.m.templateCompiles.Inc()
	rep, err := core.OptimizeContext(j.ctx, req.Circuit, opts, *req.Optimize)
	if err != nil {
		return nil, err
	}
	if rep.Trajectories > 0 {
		s.m.trajectories.Add(int64(rep.Trajectories) * int64(rep.Evaluations))
	}
	return &Result{
		Kind: KindOptimize, Backend: backendName, NumQubits: req.Circuit.NumQubits,
		Optimize: rep,
		Readouts: core.Readouts{Trajectories: rep.Trajectories},
		Waited:   j.started.Sub(j.submitted),
		Elapsed:  time.Since(start),
	}, nil
}
