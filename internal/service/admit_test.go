package service

import (
	"context"
	"math"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/core"
	"hisvsim/internal/noise"
)

// libraryCall sends the request through the library entry point of its
// kind, with the noise model where the library takes it; bare sends a run
// through SimulateContext, which returns the engine's state and reads out
// nothing.
func libraryCall(req Request, bare bool) error {
	ctx := context.Background()
	opts := req.Options
	opts.Noise = req.Noise
	var err error
	switch {
	case bare:
		_, err = core.SimulateContext(ctx, req.Circuit, opts)
	case req.Kind == KindRun:
		_, err = core.EvaluateContext(ctx, req.Circuit, opts, req.Readouts)
	case req.Kind == KindSweep:
		var bindings []map[string]float64
		if req.Sweep != nil {
			if bindings, err = req.Sweep.Expand(100); err != nil {
				return err
			}
		}
		_, err = core.SweepContext(ctx, req.Circuit, opts, req.Readouts, bindings)
	case req.Kind == KindOptimize:
		_, err = core.OptimizeContext(ctx, req.Circuit, opts, *req.Optimize)
	}
	return err
}

// TestLibraryAndServiceRefuseAlike is the request contract: a malformed
// request fails through the library entry point and through Submit, and
// both name the same rule in the same words (the service only prefixes
// its name), because both ask core.Admit. A bare case sends the library
// side through SimulateContext; its service side is the run that trips the
// same rule.
func TestLibraryAndServiceRefuseAlike(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	small := circuit.MustNamed("qft", 4)
	tpl := circuit.QAOAAnsatz(3, 1)
	good := map[string]float64{"gamma0": 0.3, "beta0": 0.7}
	z0 := []core.Observable{{Paulis: "Z", Qubits: []int{0}}}
	obsSpec := core.ReadoutSpec{Observables: z0}
	noisy := noise.Global(noise.Depolarizing(0.01))
	sweep := func(envs ...map[string]float64) *SweepSpec { return &SweepSpec{Bindings: envs} }

	type refusal struct {
		name, rule string
		req        Request
	}
	cases := []refusal{
		{"unknown strategy on flat", "unknown strategy", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "flat", Strategy: "bogus"}}},
		{"unknown strategy on dm", "unknown strategy", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "dm", Strategy: "bogus"}}},
		{"unknown strategy on a sweep", "unknown strategy", Request{Circuit: tpl, Kind: KindSweep,
			Readouts: obsSpec, Options: core.Options{Strategy: "bogus"}, Sweep: sweep(good)}},
		{"NaN init", "non-finite init value", Request{Circuit: tpl, Kind: KindOptimize,
			Optimize: &core.OptimizeSpec{Observables: z0, Init: map[string]float64{"gamma0": math.NaN()}}}},
		{"init on an unknown symbol", "init binds unknown symbol", Request{Circuit: tpl, Kind: KindOptimize,
			Optimize: &core.OptimizeSpec{Observables: z0, Init: map[string]float64{"omega": 1}}}},
		{"unknown optimizer", "unknown optimizer", Request{Circuit: tpl, Kind: KindOptimize,
			Optimize: &core.OptimizeSpec{Observables: z0, Method: "adam"}}},
		{"no observables", "at least one observable", Request{Circuit: tpl, Kind: KindOptimize,
			Optimize: &core.OptimizeSpec{Method: core.MethodSPSA}}},
		{"optimize on hier", "flat template engine", Request{Circuit: tpl, Kind: KindOptimize,
			Options: core.Options{Backend: "hier"}, Optimize: &core.OptimizeSpec{Observables: z0}}},
		{"statevector under noise", "undefined under an effective noise model", Request{Circuit: small, Kind: KindRun,
			Readouts: core.ReadoutSpec{Statevector: true}, Noise: noisy}},
		{"statevector under noise on a sweep", "undefined under an effective noise model", Request{Circuit: tpl, Kind: KindSweep,
			Readouts: core.ReadoutSpec{Statevector: true}, Noise: noisy, Sweep: sweep(good)}},
		{"statevector on dm", "statevector readout is not available", Request{Circuit: small, Kind: KindRun,
			Readouts: core.ReadoutSpec{Statevector: true}, Options: core.Options{Backend: "dm"}}},
		{"sweep on hier", "flat template engine", Request{Circuit: tpl, Kind: KindSweep,
			Readouts: obsSpec, Options: core.Options{Backend: "hier"}, Sweep: sweep(good)}},
		{"binding misses a symbol", `binding 1: circuit qaoa_ansatz: unbound symbol "beta0"`, Request{Circuit: tpl, Kind: KindSweep,
			Readouts: obsSpec, Sweep: sweep(good, map[string]float64{"gamma0": 1})}},
		{"sweep of a circuit with no symbols", "need a parameterized circuit", Request{Circuit: small, Kind: KindSweep,
			Readouts: obsSpec, Sweep: sweep(map[string]float64{})}},
		{"optimize of a circuit with no symbols", "need a parameterized circuit", Request{Circuit: small, Kind: KindOptimize,
			Optimize: &core.OptimizeSpec{Observables: z0}}},
		{"run without its binding", "unbound symbol", Request{Circuit: tpl, Kind: KindRun, Readouts: obsSpec}},
		{"unknown backend", "unknown backend", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "gpu"}}},
		{"dm over its cap", "holds at most", Request{Circuit: circuit.MustNamed("cat_state", 14), Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "dm"}}},
		{"sweep without a sweep spec", "sweep needs at least one binding", Request{Circuit: tpl, Kind: KindSweep,
			Readouts: obsSpec}},
		{"sweep with an empty spec", "sweep needs at least one binding", Request{Circuit: tpl, Kind: KindSweep,
			Readouts: obsSpec, Sweep: &SweepSpec{}}},
		{"sweep with an empty grid", "sweep needs at least one binding", Request{Circuit: tpl, Kind: KindSweep,
			Readouts: obsSpec, Sweep: &SweepSpec{Grid: map[string][]float64{}}}},
		{"Lm 1 on hier", "Lm=1 is not a tile width", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "hier", Lm: 1}}},
		{"negative Lm on hier", "Lm=-2 is not a tile width", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Lm: -2}}},
	}
	// The library side of these goes through SimulateContext (the bare
	// state); the service side is a run that trips the same rule.
	bare := []refusal{
		{"unknown strategy on flat", "unknown strategy", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "flat", Strategy: "bogus"}}},
		{"dm over its cap", `backend "dm" holds at most`, Request{Circuit: circuit.MustNamed("cat_state", 14), Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Backend: "dm"}}},
		{"effective noise", "undefined under an effective noise model", Request{Circuit: small, Kind: KindRun,
			Readouts: core.ReadoutSpec{Statevector: true}, Noise: noisy}},
		{"parameterized circuit", `unbound symbol "beta0"`, Request{Circuit: tpl, Kind: KindRun, Readouts: obsSpec}},
		{"Lm 1 on hier", "Lm=1 is not a tile width", Request{Circuit: small, Kind: KindRun,
			Readouts: shots(10, 1), Options: core.Options{Lm: 1, Strategy: "nat"}}},
	}
	check := func(t *testing.T, tc refusal, bare bool) {
		libErr := libraryCall(tc.req, bare)
		if libErr == nil {
			t.Fatalf("library accepted the request")
		}
		_, svcErr := s.Submit(tc.req)
		if svcErr == nil {
			t.Fatalf("Submit accepted the request (library: %v)", libErr)
		}
		if !strings.Contains(libErr.Error(), tc.rule) {
			t.Errorf("library error %q does not name the rule %q", libErr, tc.rule)
		}
		if want := "service: " + libErr.Error(); svcErr.Error() != want {
			t.Errorf("Submit error %q, want the library's %q", svcErr, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, tc, false) })
	}
	for _, tc := range bare {
		t.Run("Simulate/"+tc.name, func(t *testing.T) { check(t, tc, true) })
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("%d refused requests were counted as submitted", st.Submitted)
	}
}
