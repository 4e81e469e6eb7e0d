package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hisvsim/internal/backend"
	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/noise"
)

// qaoaEnvs returns deterministic bindings for every symbol of c.
func qaoaEnvs(c *circuit.Circuit, k int) []map[string]float64 {
	syms := c.Symbols()
	envs := make([]map[string]float64, k)
	for i := range envs {
		env := make(map[string]float64, len(syms))
		for j, s := range syms {
			env[s] = 0.3*float64(i+1) + 0.17*float64(j) - 0.9
		}
		envs[i] = env
	}
	return envs
}

// TestTemplateMatchesConcreteAcrossBackends is the differential acceptance
// gate: a template compiled ONCE and specialized per binding must agree
// with one-off concrete simulations of the bound circuit on every
// registered state-vector backend to 1e-9.
func TestTemplateMatchesConcreteAcrossBackends(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 2)
	tpl, err := fuse.CompileTemplate(c, fuse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tpl.TouchedBlocks() == 0 {
		t.Fatal("template reports no symbol-touched blocks")
	}
	for _, env := range qaoaEnvs(c, 3) {
		st, err := tpl.Run(env, 0)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := c.Bind(env)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range backend.Names() {
			b, err := backend.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			caps := b.Capabilities()
			if caps.Noise == backend.NoiseExact {
				continue // ρ engine: no amplitude vector to compare
			}
			ranks := 0
			if !caps.SingleRank {
				ranks = 4
			}
			res, err := Simulate(bound, Options{Backend: name, Ranks: ranks})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range st.Amps {
				if d := cmplxAbs(st.Amps[i] - res.State.Amps[i]); d > 1e-9 {
					t.Fatalf("%s env %v amp %d: template %v vs concrete %v (|Δ|=%g)",
						name, env, i, st.Amps[i], res.State.Amps[i], d)
				}
			}
		}
	}
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// TestSweepMatchesConcreteRuns: every sweep point's read-outs must be
// bit-identical to an independent Evaluate of the bound circuit under the
// same spec (the sweep reuses the spec seed per point).
func TestSweepMatchesConcreteRuns(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 1)
	spec := ReadoutSpec{
		Shots: 200, Seed: 11,
		Marginals: [][]int{{0, 1}},
		Observables: []Observable{
			{Name: "zz01", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Name: "x2", Paulis: "X", Qubits: []int{2}},
		},
	}
	bindings := qaoaEnvs(c, 5)
	rep, err := Sweep(c, Options{}, spec, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", rep.Compiles)
	}
	if rep.Points != len(bindings) {
		t.Fatalf("points = %d, want %d", rep.Points, len(bindings))
	}
	for i := range bindings {
		p := rep.Point(i)
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(bound, Options{Backend: "flat"}, spec)
		if err != nil {
			t.Fatal(err)
		}
		for k, ov := range p.Readouts.Observables {
			if math.Abs(ov.Value-want.Observables[k].Value) > 1e-9 {
				t.Fatalf("point %d obs %s: %v vs %v", i, ov.Name, ov.Value, want.Observables[k].Value)
			}
		}
		for k := range p.Readouts.Samples {
			if p.Readouts.Samples[k] != want.Samples[k] {
				t.Fatalf("point %d sample %d differs: %d vs %d", i, k, p.Readouts.Samples[k], want.Samples[k])
			}
		}
		for k := range p.Readouts.Marginals[0] {
			if math.Abs(p.Readouts.Marginals[0][k]-want.Marginals[0][k]) > 1e-9 {
				t.Fatalf("point %d marginal %d differs", i, k)
			}
		}
	}
}

// TestSweepNoisyMatchesConcrete: trajectory-noise sweeps re-bind one
// compiled plan; each point must match an independent noisy evaluation of
// the bound circuit (same seed → identical trajectories).
func TestSweepNoisyMatchesConcrete(t *testing.T) {
	c := circuit.QAOAAnsatz(3, 1)
	m := (&noise.Model{}).AddRule(noise.Rule{Channel: noise.Depolarizing(0.05)})
	spec := ReadoutSpec{
		Shots: 100, Seed: 5, Trajectories: 64,
		Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}},
	}
	bindings := qaoaEnvs(c, 3)
	rep, err := Sweep(c, Options{Noise: m, Workers: 1}, spec, bindings)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trajectories != 64 {
		t.Fatalf("trajectories = %d", rep.Trajectories)
	}
	for i := range bindings {
		p := rep.Point(i)
		bound, err := c.Bind(bindings[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(bound, Options{Noise: m, Workers: 1}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Readouts.Observables[0].Value-want.Observables[0].Value) > 1e-9 {
			t.Fatalf("point %d noisy ⟨ZZ⟩: %v vs %v", i, p.Readouts.Observables[0].Value, want.Observables[0].Value)
		}
		if !reflect.DeepEqual(p.Readouts.Counts, want.Counts) {
			t.Fatalf("point %d counts differ: %v vs %v", i, p.Readouts.Counts, want.Counts)
		}
	}
}

// TestSweepValidation: binding mistakes fail naming the symbol, and
// template jobs reject non-flat backends.
func TestSweepValidation(t *testing.T) {
	c := circuit.QAOAAnsatz(3, 1)
	spec := ReadoutSpec{Observables: []Observable{{Paulis: "Z", Qubits: []int{0}}}}
	good := qaoaEnvs(c, 1)[0]

	if _, err := Sweep(c, Options{}, spec, nil); err == nil {
		t.Fatal("empty binding list accepted")
	}
	missing := map[string]float64{"gamma0": 0.1}
	if _, err := Sweep(c, Options{}, spec, []map[string]float64{missing}); err == nil || !contains(err.Error(), "beta0") {
		t.Fatalf("unbound symbol not named: %v", err)
	}
	unknown := map[string]float64{"gamma0": 1, "beta0": 1, "delta": 2}
	if _, err := Sweep(c, Options{}, spec, []map[string]float64{unknown}); err == nil || !contains(err.Error(), "delta") {
		t.Fatalf("unknown symbol not named: %v", err)
	}
	nan := map[string]float64{"gamma0": math.NaN(), "beta0": 1}
	if _, err := Sweep(c, Options{}, spec, []map[string]float64{nan}); err == nil || !contains(err.Error(), "gamma0") {
		t.Fatalf("non-finite value not named: %v", err)
	}
	if _, err := Sweep(c, Options{Backend: "hier"}, spec, []map[string]float64{good}); err == nil {
		t.Fatal("non-flat backend accepted for a sweep")
	}
}

// TestOptimizeFindsIsingGroundDirection: a 1-layer QAOA loop on a tiny
// ZZ objective must strictly improve on the zero start, with exactly one
// compile and a populated trace.
func TestOptimizeFindsIsingGroundDirection(t *testing.T) {
	c := circuit.QAOAAnsatz(4, 1)
	spec := OptimizeSpec{
		Observables: []Observable{
			{Coeff: 1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Coeff: 1, Paulis: "ZZ", Qubits: []int{1, 2}},
			{Coeff: 1, Paulis: "ZZ", Qubits: []int{2, 3}},
		},
		Method: MethodSPSA, MaxIters: 40, Seed: 3, A: 0.4, C: 0.15,
	}
	rep, err := Optimize(c, Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1", rep.Compiles)
	}
	if len(rep.Trace) == 0 || rep.Evaluations < 3*len(rep.Trace) {
		t.Fatalf("trace %d entries, %d evaluations", len(rep.Trace), rep.Evaluations)
	}
	// |++++⟩ has ⟨ZZ⟩ = 0 on every bond; any useful step goes below it.
	if rep.BestValue >= 0 {
		t.Fatalf("best value %v, want < 0 (start is 0)", rep.BestValue)
	}
	if err := c.CheckBinding(rep.Best); err != nil {
		t.Fatalf("best binding incomplete: %v", err)
	}

	nm := spec
	nm.Method = MethodNelderMead
	nmRep, err := Optimize(c, Options{}, nm)
	if err != nil {
		t.Fatal(err)
	}
	if nmRep.BestValue >= 0 {
		t.Fatalf("nelder-mead best %v, want < 0", nmRep.BestValue)
	}
}

// TestOptimizeValidation covers the submit-time failure modes.
func TestOptimizeValidation(t *testing.T) {
	c := circuit.QAOAAnsatz(3, 1)
	obs := []Observable{{Paulis: "Z", Qubits: []int{0}}}
	if _, err := Optimize(c, Options{}, OptimizeSpec{Observables: obs, Method: "newton"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Optimize(c, Options{}, OptimizeSpec{}); err == nil {
		t.Fatal("empty objective accepted")
	}
	if _, err := Optimize(c, Options{}, OptimizeSpec{Observables: obs, Init: map[string]float64{"nope": 1}}); err == nil || !contains(err.Error(), "nope") {
		t.Fatalf("unknown init symbol not named: %v", err)
	}
	concrete := circuit.MustNamed("ising", 3)
	if _, err := Optimize(concrete, Options{}, OptimizeSpec{Observables: obs}); err == nil {
		t.Fatal("symbol-free circuit accepted")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
