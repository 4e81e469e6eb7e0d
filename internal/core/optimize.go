package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/prof"
)

// This file is the v3 optimize surface: a server-side variational loop
// that minimizes the summed weighted Pauli observables (the energy
// ⟨H⟩ = Σ c_k⟨P_k⟩) over a parameterized circuit's symbols. Every objective
// evaluation is one point of the sweep runner over one compiled engine, so
// the loop costs 1 compile + E evaluations — the request pattern a VQE/QAOA
// client would otherwise drive with E round trips of concrete circuits.

// Optimizer method names accepted by OptimizeSpec.Method.
const (
	MethodSPSA       = "spsa"
	MethodNelderMead = "nelder-mead"
)

// OptimizeSpec configures a server-side optimization job.
type OptimizeSpec struct {
	// Observables defines the objective: minimize Σ Coeff·⟨∏ σ⟩.
	Observables []Observable
	// Method selects the optimizer: "spsa" (default, gradient-free
	// stochastic approximation; 3 evaluations per iteration) or
	// "nelder-mead" (deterministic simplex).
	Method string
	// Init seeds the starting point; symbols absent from it start at 0.
	// Keys that are not circuit symbols are rejected.
	Init map[string]float64
	// MaxIters bounds the iteration count (default 50).
	MaxIters int
	// Seed drives the SPSA perturbation RNG (and the trajectory RNGs of
	// noisy objective evaluations, via the usual readout seed).
	Seed int64
	// A and C are the SPSA gain scales: step a_k = A/(k+1+0.1·MaxIters)^0.602,
	// perturbation c_k = C/(k+1)^0.101. Defaults 0.15 and 0.1. Nelder-Mead
	// uses C as its initial simplex step (default 0.25).
	A, C float64
	// Tol, when > 0, stops the loop early once the per-iteration objective
	// improvement stays below it (SPSA: 3 consecutive iterations;
	// Nelder-Mead: simplex value spread below Tol).
	Tol float64
	// Trajectories is the per-evaluation ensemble size for noisy
	// objectives (0 = default).
	Trajectories int
}

func (s OptimizeSpec) withDefaults() OptimizeSpec {
	if s.Method == "" {
		s.Method = MethodSPSA
	}
	if s.MaxIters <= 0 {
		s.MaxIters = 50
	}
	if s.A <= 0 {
		s.A = 0.15
	}
	if s.C <= 0 {
		if s.Method == MethodNelderMead {
			s.C = 0.25
		} else {
			s.C = 0.1
		}
	}
	return s
}

// Validate checks the spec against the circuit it optimizes: a known
// method, at least one observable, and an Init that binds only the
// circuit's symbols, each to a finite value. (That the circuit has symbols
// at all is Admit's check, shared with sweeps.)
func (s OptimizeSpec) Validate(c *circuit.Circuit) error {
	if s.Method != "" && s.Method != MethodSPSA && s.Method != MethodNelderMead {
		return fmt.Errorf("core: unknown optimizer %q (have %q, %q)", s.Method, MethodSPSA, MethodNelderMead)
	}
	if len(s.Observables) == 0 {
		return fmt.Errorf("core: optimize needs at least one observable (the objective is their weighted sum)")
	}
	syms := c.Symbols()
	for _, k := range slices.Sorted(maps.Keys(s.Init)) {
		if !slices.Contains(syms, k) {
			return fmt.Errorf("core: init binds unknown symbol %q", k)
		}
		if v := s.Init[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite init value %v for symbol %q", v, k)
		}
	}
	return nil
}

// readouts is what every objective evaluation reads out.
func (s OptimizeSpec) readouts() ReadoutSpec {
	return ReadoutSpec{Observables: s.Observables, Seed: s.Seed, Trajectories: s.Trajectories}
}

// OptimizeIteration is one entry of the per-iteration trace.
type OptimizeIteration struct {
	// Iter is the iteration index (0-based).
	Iter int
	// Params is the iterate after this iteration's update.
	Params map[string]float64
	// Value is the objective at Params.
	Value float64
}

// OptimizeReport is the result of an optimization job.
type OptimizeReport struct {
	// Best is the best evaluated binding and BestValue its objective —
	// tracked across every evaluation, not just trace points.
	Best      map[string]float64
	BestValue float64
	// Trace records one entry per iteration, in order.
	Trace []OptimizeIteration
	// Evaluations counts objective evaluations (each one template
	// specialization + run). Compiles is 1 from OptimizeContext, which
	// compiles its own engine; from a service job, the compiles that job
	// missed the template and plan caches for (0 when both were cached).
	Evaluations int
	Compiles    int
	// Method echoes the resolved optimizer name.
	Method string
	// Converged reports whether Tol stopped the loop before MaxIters.
	Converged bool
	// Trajectories is the per-evaluation ensemble size, as SweepReport's:
	// 0 for ideal and zero-effect objectives, which run no ensemble.
	Trajectories int
	// Elapsed is the wall time of the whole loop, compile included.
	Elapsed time.Duration
}

// OptimizeContext minimizes the spec's observable sum over the circuit's
// symbols: Admit, compile the engine once (compileEngine), RunOptimize.
func OptimizeContext(ctx context.Context, c *circuit.Circuit, opts Options, spec OptimizeSpec) (*OptimizeReport, error) {
	start := time.Now()
	if _, _, err := Admit(Request{Circuit: c, Kind: KindOptimize, Options: opts, Optimize: &spec}); err != nil {
		return nil, err
	}
	eng, err := compileEngine(c, opts)
	if err != nil {
		return nil, err
	}
	rep, err := RunOptimize(ctx, eng, spec, opts.Workers)
	if err != nil {
		return nil, err
	}
	rep.Compiles = 1
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// RunOptimize is RunSweep's twin: the spec's SPSA or Nelder-Mead loop over
// eng, each objective evaluation one binding replayed by one point worker
// (kernels and ensembles width wide, ≤ 0: GOMAXPROCS) and read out by
// RunSweep's evaluator. Noisy objectives reuse the seed every evaluation —
// common random numbers, a consistent noisy landscape. The caller admits the
// request first (Admit with KindOptimize) and sets Compiles and Elapsed.
func RunOptimize(ctx context.Context, eng SweepEngine, spec OptimizeSpec, width int) (*OptimizeReport, error) {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	spec = spec.withDefaults()
	evaluate, err := eng.evaluator(spec.readouts(), width)
	if err != nil {
		return nil, err
	}
	w := newSweepWorker(eng.Template, width, prof.FromContext(ctx), false)
	syms := eng.symbols()
	rep := &OptimizeReport{Method: spec.Method}

	x := make([]float64, len(syms))
	for i, s := range syms {
		x[i] = spec.Init[s]
	}
	envOf := func(x []float64) map[string]float64 {
		env := make(map[string]float64, len(syms))
		for i, s := range syms {
			env[s] = x[i]
		}
		return env
	}
	rep.Best = envOf(x)
	rep.BestValue = math.Inf(1)
	eval := func(x []float64) (float64, error) {
		env := envOf(x)
		ro, err := w.point(ctx, evaluate, env, x, 0, false)
		if err != nil {
			return 0, err
		}
		v := 0.0
		for _, ov := range ro.Observables {
			v += ov.Value
		}
		rep.Evaluations++
		rep.Trajectories = w.trajectories
		if v < rep.BestValue {
			rep.BestValue, rep.Best = v, env
		}
		return v, nil
	}

	switch spec.Method {
	case MethodSPSA:
		err = runSPSA(ctx, x, eval, envOf, spec, rep)
	case MethodNelderMead:
		err = runNelderMead(ctx, x, eval, envOf, spec, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runSPSA is simultaneous-perturbation stochastic approximation: each
// iteration probes f at x ± c_k·Δ for one Rademacher Δ, estimates the
// gradient from the two probes, steps, and evaluates the new iterate for
// the trace (3 evaluations per iteration).
func runSPSA(ctx context.Context, x []float64, eval func([]float64) (float64, error), envOf func([]float64) map[string]float64, spec OptimizeSpec, rep *OptimizeReport) error {
	rng := rand.New(rand.NewSource(spec.Seed))
	d := len(x)
	stall := 0
	prev := math.Inf(1)
	bigA := 0.1 * float64(spec.MaxIters)
	for k := 0; k < spec.MaxIters; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ak := spec.A / math.Pow(float64(k+1)+bigA, 0.602)
		ck := spec.C / math.Pow(float64(k+1), 0.101)
		delta := make([]float64, d)
		for i := range delta {
			if rng.Intn(2) == 0 {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
		}
		xp := make([]float64, d)
		xm := make([]float64, d)
		for i := range x {
			xp[i] = x[i] + ck*delta[i]
			xm[i] = x[i] - ck*delta[i]
		}
		fp, err := eval(xp)
		if err != nil {
			return err
		}
		fm, err := eval(xm)
		if err != nil {
			return err
		}
		for i := range x {
			x[i] -= ak * (fp - fm) / (2 * ck * delta[i])
		}
		fx, err := eval(x)
		if err != nil {
			return err
		}
		rep.Trace = append(rep.Trace, OptimizeIteration{Iter: k, Params: envOf(x), Value: fx})
		if spec.Tol > 0 {
			if math.Abs(prev-fx) < spec.Tol {
				stall++
				if stall >= 3 {
					rep.Converged = true
					return nil
				}
			} else {
				stall = 0
			}
			prev = fx
		}
	}
	return nil
}

// runNelderMead is the standard downhill-simplex method (reflection,
// expansion, contraction, shrink with the usual 1/2/0.5/0.5 coefficients);
// the trace records the best vertex per iteration.
func runNelderMead(ctx context.Context, x0 []float64, eval func([]float64) (float64, error), envOf func([]float64) map[string]float64, spec OptimizeSpec, rep *OptimizeReport) error {
	d := len(x0)
	type vertex struct {
		x []float64
		f float64
	}
	verts := make([]vertex, 0, d+1)
	add := func(x []float64) error {
		f, err := eval(x)
		if err != nil {
			return err
		}
		verts = append(verts, vertex{x: x, f: f})
		return nil
	}
	if err := add(append([]float64(nil), x0...)); err != nil {
		return err
	}
	for i := 0; i < d; i++ {
		x := append([]float64(nil), x0...)
		x[i] += spec.C
		if err := add(x); err != nil {
			return err
		}
	}
	for k := 0; k < spec.MaxIters; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i].f < verts[j].f })
		best, worst := verts[0], verts[d]
		if spec.Tol > 0 && worst.f-best.f < spec.Tol {
			rep.Converged = true
			rep.Trace = append(rep.Trace, OptimizeIteration{Iter: k, Params: envOf(best.x), Value: best.f})
			return nil
		}
		// Centroid of all but the worst vertex.
		cen := make([]float64, d)
		for _, v := range verts[:d] {
			for i := range cen {
				cen[i] += v.x[i] / float64(d)
			}
		}
		at := func(coef float64) []float64 {
			x := make([]float64, d)
			for i := range x {
				x[i] = cen[i] + coef*(worst.x[i]-cen[i])
			}
			return x
		}
		xr := at(-1) // reflection
		fr, err := eval(xr)
		if err != nil {
			return err
		}
		switch {
		case fr < best.f:
			xe := at(-2) // expansion
			fe, err := eval(xe)
			if err != nil {
				return err
			}
			if fe < fr {
				verts[d] = vertex{x: xe, f: fe}
			} else {
				verts[d] = vertex{x: xr, f: fr}
			}
		case fr < verts[d-1].f:
			verts[d] = vertex{x: xr, f: fr}
		default:
			xc := at(0.5) // contraction toward the worst vertex
			fc, err := eval(xc)
			if err != nil {
				return err
			}
			if fc < worst.f {
				verts[d] = vertex{x: xc, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= d; i++ {
					x := make([]float64, d)
					for j := range x {
						x[j] = best.x[j] + 0.5*(verts[i].x[j]-best.x[j])
					}
					f, err := eval(x)
					if err != nil {
						return err
					}
					verts[i] = vertex{x: x, f: f}
				}
			}
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i].f < verts[j].f })
		rep.Trace = append(rep.Trace, OptimizeIteration{Iter: k, Params: envOf(verts[0].x), Value: verts[0].f})
	}
	return nil
}
