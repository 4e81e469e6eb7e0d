package core

import (
	"fmt"

	"hisvsim/internal/circuit"
)

// Request is one request as core admits it: a circuit, how to run it and
// what to read out. The library's Evaluate, Sweep and Optimize and the
// service's submit each build one and call Admit before any work, so a
// malformed request is refused by the same rule, in the same words,
// whichever way it arrived.
type Request struct {
	Circuit *circuit.Circuit
	// Options selects the engine and carries the noise model.
	Options Options
	// Readouts is what a run or a sweep reads out. An optimize request
	// reads out its objective instead (OptimizeSpec.Observables).
	Readouts ReadoutSpec
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
// optimize request (Bindings or Optimize set) runs on the flat template
// engine, which an empty Options.Backend selects for it; a run's empty
// Options.Backend selects hier.
func Admit(r Request) (engine string, exact bool, err error) {
	c := r.Circuit
	if err := c.Validate(); err != nil {
		return "", false, err
	}
	spec, template := r.Readouts, r.Bindings != nil || r.Optimize != nil
	if template && !c.Parametric() {
		return "", false, fmt.Errorf("core: sweep and optimize requests need a parameterized circuit (circuit %s has no symbols)", c.Name)
	}
	if r.Optimize != nil {
		if err := r.Optimize.Validate(c); err != nil {
			return "", false, err
		}
		spec = r.Optimize.readouts()
	}
	if err := spec.Validate(c.NumQubits); err != nil {
		return "", false, err
	}
	noisy := !r.Options.Noise.IsZero()
	if r.Options.Noise != nil {
		if err := r.Options.Noise.Validate(c.NumQubits); err != nil {
			return "", false, err
		}
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
	exact = caps.Noise == NoiseExact
	if spec.Statevector && exact {
		return "", false, fmt.Errorf("core: statevector readout is not available on backend %q (ρ has no single amplitude vector)", engine)
	}
	if spec.Statevector && noisy {
		return "", false, fmt.Errorf("core: statevector readout is undefined under an effective noise model (a trajectory ensemble has no single state)")
	}
	return engine, exact, nil
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
