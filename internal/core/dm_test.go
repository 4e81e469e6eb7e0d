package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dm"
	"hisvsim/internal/noise"
)

// TestSimulateDMBackendZeroNoise: the "dm" backend through the ordinary
// Simulate path returns ρ = |ψ⟩⟨ψ| of the flat reference state (the
// zero-noise differential bound), with no amplitude vector.
func TestSimulateDMBackendZeroNoise(t *testing.T) {
	c := circuit.MustNamed("qft", 6)
	res, err := Simulate(c, Options{Backend: "dm"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "dm" || res.DM == nil || res.State != nil {
		t.Fatalf("dm result: backend=%q DM=%v State=%v", res.Backend, res.DM != nil, res.State != nil)
	}
	flat, err := Simulate(c, Options{Backend: "flat"})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.DM.MaxAbsDiffPure(flat.State); diff > 1e-9 {
		t.Fatalf("max |ρ − ψψ†| = %g", diff)
	}
}

// TestEvaluateDMMatchesIdealReadouts: every zero-noise read-out from ρ
// agrees with the flat state-vector backend's ≤ 1e-9, and the seeded shot
// stream is identical (both sample the same distribution with the same
// generator).
func TestEvaluateDMMatchesIdealReadouts(t *testing.T) {
	c := circuit.MustNamed("qft", 5)
	spec := ReadoutSpec{
		Shots: 200, Seed: 11,
		Marginals: [][]int{{0, 2}},
		Observables: []Observable{
			{Name: "zz", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Name: "xy", Paulis: "XY", Qubits: []int{2, 4}},
		},
	}
	want, err := Evaluate(c, Options{Backend: "flat"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(c, Options{Backend: "dm"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Density == nil {
		t.Fatal("dm evaluate returned no density matrix")
	}
	for k := range want.Observables {
		if d := math.Abs(got.Observables[k].Value - want.Observables[k].Value); d > 1e-9 {
			t.Errorf("observable %s: dm %g vs flat %g", spec.Observables[k].Name,
				got.Observables[k].Value, want.Observables[k].Value)
		}
	}
	for i := range want.Marginals[0] {
		if d := math.Abs(got.Marginals[0][i] - want.Marginals[0][i]); d > 1e-9 {
			t.Errorf("marginal[%d]: dm %g vs flat %g", i, got.Marginals[0][i], want.Marginals[0][i])
		}
	}
	// Both engines draw shots through the shared sv.Sampler inverse-CDF, so
	// the same seed over the same distribution yields the identical
	// per-shot sample stream (and therefore counts).
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("dm drew %d samples, flat %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d: dm %d vs flat %d (same seed must draw identically)", i, got.Samples[i], want.Samples[i])
		}
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("counts: dm %v vs flat %v", got.Counts, want.Counts)
	}
}

// TestEvaluateDMNoisySeedIndependentObservables: under an effective model
// the dm backend's observables and marginals do not depend on seed or
// trajectory count — there is no ensemble — and match the trajectory
// engine within 3× its standard error.
func TestEvaluateDMNoisySeedIndependentObservables(t *testing.T) {
	c := circuit.MustNamed("ising", 5)
	model := noise.OnGates(noise.CorrelatedDepolarizing2(0.03), "rzz").
		AddRule(noise.Rule{Channel: noise.PhaseDamping(0.02)})
	spec := ReadoutSpec{
		Shots: 100, Seed: 1, Trajectories: 7,
		Observables: []Observable{{Name: "z0", Paulis: "Z", Qubits: []int{0}}},
	}
	a, err := Evaluate(c, Options{Backend: "dm", Noise: model}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ensemble != nil || a.Density == nil {
		t.Fatalf("dm noisy evaluate: ensemble=%v density=%v", a.Ensemble != nil, a.Density != nil)
	}
	spec2 := spec
	spec2.Seed, spec2.Trajectories = 99, 500
	b, err := Evaluate(c, Options{Backend: "dm", Noise: model}, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Observables[0].Value != b.Observables[0].Value {
		t.Fatalf("exact observable moved with seed/trajectories: %g vs %g",
			a.Observables[0].Value, b.Observables[0].Value)
	}
	ens, err := Evaluate(c, Options{Backend: "flat", Noise: model},
		ReadoutSpec{Trajectories: 1200, Seed: 5, Observables: spec.Observables})
	if err != nil {
		t.Fatal(err)
	}
	exact, mean, se := a.Observables[0].Value, ens.Observables[0].Value, ens.Observables[0].StdErr
	if math.Abs(mean-exact) > 3*se+1e-9 {
		t.Fatalf("⟨Z0⟩: ensemble %g ± %g vs exact %g (|Δ| > 3σ)", mean, se, exact)
	}
}

// TestDMCapabilityErrors: requests the engine cannot serve fail up front
// with actionable messages.
func TestDMCapabilityErrors(t *testing.T) {
	small := circuit.MustNamed("ising", 5)
	model := noise.Global(noise.Depolarizing(0.01))

	// Statevector read-out of ρ.
	if _, err := Evaluate(small, Options{Backend: "dm"}, ReadoutSpec{Statevector: true}); err == nil ||
		!strings.Contains(err.Error(), "statevector") {
		t.Errorf("statevector on dm: %v", err)
	}
	// Register over the cap.
	wide := circuit.MustNamed("cat_state", dm.MaxQubits+1)
	if _, err := Evaluate(wide, Options{Backend: "dm"}, ReadoutSpec{Shots: 1}); err == nil ||
		!strings.Contains(err.Error(), "at most") {
		t.Errorf("dm over cap: %v", err)
	}
	// Engines with no noisy path reject effective models. No built-in
	// engine lacks one, so the test registers its own.
	Register(noiselessBackend{})
	if _, err := Evaluate(small, Options{Backend: noiselessBackend{}.Name(), Noise: model}, ReadoutSpec{Shots: 1}); err == nil ||
		!strings.Contains(err.Error(), "no noisy path") {
		t.Errorf("noisy Evaluate on a noiseless engine: %v", err)
	}
	// The default backend runs noisy requests as a trajectory ensemble.
	if rep, err := Evaluate(small, Options{Noise: model}, ReadoutSpec{
		Trajectories: 5, Observables: []Observable{{Paulis: "Z", Qubits: []int{0}}},
	}); err != nil {
		t.Errorf("default-backend noisy run rejected: %v", err)
	} else if rep.Ensemble == nil || rep.Ensemble.Trajectories != 5 {
		t.Errorf("default-backend noisy run: ensemble %v, want 5 trajectories", rep.Ensemble)
	}
}

// noiselessBackend is the flat sweep registered under another name with no
// noisy path, so tests can pin how such an engine's noisy requests fail.
type noiselessBackend struct{}

func (noiselessBackend) Name() string { return "test-noiseless" }

func (noiselessBackend) Capabilities() Capabilities {
	return Capabilities{Description: "flat sweep without a noisy path"}
}

func (noiselessBackend) Run(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	return flatBackend{}.Run(ctx, c, opts)
}
