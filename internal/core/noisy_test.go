package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/noise"
)

// zeroModel is structurally noisy (rules for every channel family plus a
// readout stanza) but has every probability at zero — it must compile away
// completely.
func zeroModel() *noise.Model {
	m := noise.NewModel(
		noise.Rule{Channel: noise.Depolarizing(0)},
		noise.Rule{Channel: noise.BitFlip(0)},
		noise.Rule{Channel: noise.PhaseFlip(0)},
		noise.Rule{Channel: noise.AmplitudeDamping(0)},
		noise.Rule{Channel: noise.PhaseDamping(0)},
	)
	return m.WithReadout(0, 0)
}

// TestZeroNoiseMatchesIdealBitForBit is the differential acceptance test:
// for every strategy and fusion setting, a zero-probability noise model must
// reproduce ideal simulation exactly — Evaluate runs the ideal path, so the
// Z-string observable matches ideal bit-for-bit with zero standard error and
// the sampled counts are reproducible functions of the seed alone.
func TestZeroNoiseMatchesIdealBitForBit(t *testing.T) {
	c, err := circuit.Named("qft", 8)
	if err != nil {
		t.Fatal(err)
	}
	qubits := []int{0, 3, 5}
	cases := []Options{
		{Strategy: "nat", Lm: 5},
		{Strategy: "dfs", Lm: 5, Seed: 3},
		{Strategy: "dagp", Lm: 5, Seed: 3},
		{Strategy: "dagp", Seed: 3},
		{Strategy: "dagp", Fuse: FuseOff, Seed: 3},
	}
	for _, opts := range cases {
		ideal, err := SimulateContext(context.Background(), c, opts)
		if err != nil {
			t.Fatalf("%+v: ideal: %v", opts, err)
		}
		want := ideal.State.ExpectationPauliZString(qubits)

		noisyOpts := opts
		noisyOpts.Noise = zeroModel()
		spec := ReadoutSpec{Trajectories: 4, Seed: 11, Shots: 64,
			Observables: []Observable{{Paulis: "ZZZ", Qubits: qubits}}}
		a, err := EvaluateContext(context.Background(), c, noisyOpts, spec)
		if err != nil {
			t.Fatalf("%+v: noisy: %v", opts, err)
		}
		if a.Sim == nil || a.Ensemble != nil {
			t.Fatalf("%+v: zero model missed the ideal fast path", opts)
		}
		if got := a.Observables[0]; got.Value != want {
			t.Fatalf("%+v: zero-noise ⟨Z⟩ = %v, ideal = %v (must be identical)",
				opts, got.Value, want)
		} else if got.StdErr != 0 {
			t.Fatalf("%+v: zero-noise stderr %v, want exactly 0", opts, got.StdErr)
		}

		// Same seed ⇒ identical counts; and a nil model agrees with the
		// zero-probability model exactly (same elision, same fast path).
		b, err := EvaluateContext(context.Background(), c, opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Histogram()) == 0 || !slices.Equal(a.Histogram(), b.Histogram()) {
			t.Fatalf("%+v: counts differ between zero model and nil model", opts)
		}

		// A model whose rules match no gate of the circuit is not zero, but
		// its plan has no channel site: the ensemble samples one ideal
		// simulation, so the observable is still ideal bit-for-bit.
		idle := opts
		idle.Noise = noise.OnGates(noise.Depolarizing(0.1), "ccx")
		e, err := EvaluateContext(context.Background(), c, idle, spec)
		if err != nil {
			t.Fatal(err)
		}
		if e.Ensemble == nil || !e.Ensemble.NoiseFree {
			t.Fatalf("%+v: channel-free plan missed the noise-free ensemble path", opts)
		}
		if got := e.Observables[0]; got.Value != want || got.StdErr != 0 {
			t.Fatalf("%+v: channel-free ⟨Z⟩ = %v ± %v, ideal = %v (must be identical)",
				opts, got.Value, got.StdErr, want)
		}
	}
}

// TestSimulateRejectsNoiseModel: the ideal entry point must not silently
// ignore an effective noise model.
func TestSimulateRejectsNoiseModel(t *testing.T) {
	c, err := circuit.Named("bv", 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateContext(context.Background(), c, Options{Noise: noise.Global(noise.Depolarizing(0.01))}); err == nil {
		t.Fatal("Simulate accepted a noisy model")
	}
	// A zero model is fine (it IS ideal).
	if _, err := SimulateContext(context.Background(), c, Options{Noise: zeroModel()}); err != nil {
		t.Fatalf("Simulate rejected a zero model: %v", err)
	}
}

// TestEvaluateNoisySeededReproducibility: fixed (circuit, model, spec)
// reproduces counts and observables exactly, across repeated runs and
// worker counts.
func TestEvaluateNoisySeededReproducibility(t *testing.T) {
	c, err := circuit.Named("ising", 6)
	if err != nil {
		t.Fatal(err)
	}
	model := noise.Global(noise.Depolarizing(0.02)).WithReadout(0.01, 0.01)
	run := func(workers int) *RunReport {
		rep, err := EvaluateContext(context.Background(), c, Options{Noise: model, Workers: workers}, ReadoutSpec{
			Trajectories: 30, Seed: 42, Shots: 300,
			Observables: []Observable{{Paulis: "ZZ", Qubits: []int{0, 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b, c8 := run(2), run(2), run(8)
	if a.Observables[0] != b.Observables[0] || a.Observables[0] != c8.Observables[0] {
		t.Fatal("expectation not reproducible across runs/workers")
	}
	if !slices.Equal(a.Counts, b.Counts) || !slices.Equal(a.Counts, c8.Counts) {
		t.Fatal("counts not reproducible across runs/workers")
	}
	if a.Ensemble == nil || a.Ensemble.NoiseFree {
		t.Fatal("noisy run took the noise-free path")
	}
	if a.Ensemble.Stats.Locations == 0 {
		t.Fatal("no channel draws recorded")
	}
}

// TestEvaluateNoisyDecay reruns the analytic depolarizing check through the
// public core surface (id-gate anchors, ⟨Z⟩ = (1−4p/3)^k).
func TestEvaluateNoisyDecay(t *testing.T) {
	const p, k = 0.08, 6
	c := circuit.New("decay", 2)
	for i := 0; i < k; i++ {
		c.Append(gate.ID(0))
	}
	opts := Options{Noise: noise.OnGates(noise.Depolarizing(p), "id")}
	rep, err := EvaluateContext(context.Background(), c, opts, ReadoutSpec{Trajectories: 3000, Seed: 5,
		Observables: []Observable{{Paulis: "Z", Qubits: []int{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-4*p/3, k)
	if z := rep.Observables[0]; math.Abs(z.Value-want) > 6*z.StdErr+1e-9 {
		t.Fatalf("⟨Z⟩ = %.4f ± %.4f, analytic %.4f", z.Value, z.StdErr, want)
	}
}
