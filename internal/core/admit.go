package core

import (
	"fmt"

	"hisvsim/internal/circuit"
)

// Kind is what a request computes. The service's wire kinds are these.
type Kind string

// Request kinds.
const (
	// KindRun is one simulation: the engine's state (SimulateContext), or
	// any mix of read-outs from one simulation or, under an effective noise
	// model, one trajectory ensemble (EvaluateContext).
	KindRun Kind = "run"
	// KindSweep evaluates one parameterized template over a binding grid:
	// it compiles once (Stats.TemplateCompiles in the service) and every
	// point re-binds it; the result is one table, rows in request order
	// (SweepContext).
	KindSweep Kind = "sweep"
	// KindOptimize minimizes a weighted Pauli observable sum over the
	// template's symbols with an SPSA or Nelder-Mead loop, with a
	// per-iteration trace in the result (OptimizeContext).
	KindOptimize Kind = "optimize"
)

// Request is one request as core admits it: a circuit, how to run it and
// what to read out. Every library entry point (SimulateContext,
// EvaluateContext, SweepContext, OptimizeContext) and the service's submit
// build one and call Admit before any work, so a malformed request is
// refused by the same rule, in the same words, whichever way it arrived.
type Request struct {
	Circuit *circuit.Circuit
	// Kind is what the request computes; the zero value is a run.
	Kind Kind
	// Options selects the engine and carries the noise model.
	Options Options
	// Readouts is what a run or a sweep reads out; nil asks for the
	// engine's state itself (SimulateContext). An optimize request reads
	// out its objective instead (OptimizeSpec.Observables).
	Readouts *ReadoutSpec
	// Params binds a parameterized circuit for a run.
	Params map[string]float64
	// Bindings is a sweep's grid, one environment per point.
	Bindings []map[string]float64
	// Optimize is an optimize request's spec.
	Optimize *OptimizeSpec
}

// Admit checks every rule the request's circuit, options and read-outs
// must keep and resolves the engine that runs it: its registry name, and
// whether it evolves ρ exactly (capability NoiseExact). A sweep or an
// optimize request runs on the flat template engine, which an empty
// Options.Backend selects for it; a run's empty Options.Backend selects
// hier.
func Admit(r Request) (engine string, exact bool, err error) {
	c := r.Circuit
	if err := c.Validate(); err != nil {
		return "", false, err
	}
	spec, template := r.Readouts, r.Kind == KindSweep || r.Kind == KindOptimize
	if template && !c.Parametric() {
		return "", false, fmt.Errorf("core: sweep and optimize requests need a parameterized circuit (circuit %s has no symbols)", c.Name)
	}
	switch r.Kind {
	case KindSweep:
		if len(r.Bindings) == 0 {
			return "", false, fmt.Errorf("core: sweep needs at least one binding (set Bindings or Grid)")
		}
	case KindOptimize:
		if r.Optimize == nil {
			return "", false, fmt.Errorf("core: optimize needs an optimize spec (observables + method)")
		}
		if err := r.Optimize.Validate(c); err != nil {
			return "", false, err
		}
		objective := r.Optimize.readouts()
		spec = &objective
	}
	if spec != nil {
		if err := spec.Validate(c.NumQubits); err != nil {
			return "", false, err
		}
	}
	noisy := !r.Options.Noise.IsZero()
	if r.Options.Noise != nil {
		if err := r.Options.Noise.Validate(c.NumQubits); err != nil {
			return "", false, err
		}
	}
	// A bare simulation returns the state, which a noisy run does not have.
	if noisy && (spec == nil || spec.Statevector) {
		return "", false, fmt.Errorf("core: the state (a statevector readout or a bare simulation) is undefined under an effective noise model (a trajectory ensemble has no single state)")
	}
	if _, err := NewStrategy(r.Options.Strategy, 0); err != nil {
		return "", false, err
	}
	if template {
		for i, env := range r.Bindings {
			if err := c.CheckBinding(env); err != nil {
				return "", false, fmt.Errorf("core: binding %d: %w", i, err)
			}
		}
	} else if len(r.Params) > 0 || c.Parametric() {
		if err := c.CheckBinding(r.Params); err != nil {
			return "", false, fmt.Errorf("core: %w", err)
		}
	}

	engine = r.Options.Backend
	if template && engine == "" {
		engine = NameFlat
	}
	b, engine, err := resolve(engine)
	if err != nil {
		return "", false, err
	}
	caps := b.Capabilities()
	if caps.MaxQubits > 0 && c.NumQubits > caps.MaxQubits {
		return "", false, fmt.Errorf("core: backend %q holds at most %d qubits (circuit has %d)", engine, caps.MaxQubits, c.NumQubits)
	}
	if noisy && caps.Noise == NoiseNone {
		// The results could never come from the engine the caller asked for.
		return "", false, fmt.Errorf("core: backend %q has no noisy path (engines with noise support: %v)", engine, noisyBackendNames())
	}
	if template && engine != NameFlat {
		return "", false, fmt.Errorf("core: parameterized jobs run on the flat template engine (got backend %q)", engine)
	}
	if lm, widest := r.Options.Lm, widestGate(c); caps.Partitioned && (lm < 0 || lm > 0 && lm < widest) {
		// A part holds every gate it runs.
		return "", false, fmt.Errorf("core: Lm=%d is not a tile width for backend %q (want 0 for the full register, or at least %d, the widest gate's qubit count)", lm, engine, widest)
	}
	exact = caps.Noise == NoiseExact
	if spec != nil && spec.Statevector && exact {
		return "", false, fmt.Errorf("core: statevector readout is not available on backend %q (ρ has no single amplitude vector)", engine)
	}
	return engine, exact, nil
}

// widestGate is the largest qubit count of one gate of c (at least 1).
func widestGate(c *circuit.Circuit) int {
	w := 1
	for _, g := range c.Gates {
		w = max(w, g.Arity())
	}
	return w
}

// noisyBackendNames lists the registered backends that accept requests
// carrying an effective noise model.
func noisyBackendNames() []string {
	var out []string
	for _, info := range Backends() {
		if info.Capabilities.Noise != NoiseNone {
			out = append(out, info.Name)
		}
	}
	return out
}
