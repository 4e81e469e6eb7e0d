package core

import (
	"math"
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
// for every strategy/rank combination, a zero-probability noise model must
// reproduce ideal simulation exactly — the same final state serves the
// ensemble, so the Z-string expectation matches ideal bit-for-bit (T = 4
// identical trajectory values average exactly) and the sampled counts are
// reproducible functions of the seed alone.
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
		{Strategy: "dagp", Ranks: 2, Seed: 3},
		{Strategy: "dagp", Ranks: 4, Seed: 3},
		{Strategy: "dagp", Fuse: FuseOff, Seed: 3},
	}
	for _, opts := range cases {
		ideal, err := Simulate(c, opts)
		if err != nil {
			t.Fatalf("%+v: ideal: %v", opts, err)
		}
		want := ideal.State.ExpectationPauliZString(qubits)

		noisyOpts := opts
		noisyOpts.Noise = zeroModel()
		run := noise.RunConfig{Trajectories: 4, Seed: 11, Shots: 64, Qubits: qubits}
		a, err := SimulateNoisy(c, noisyOpts, run)
		if err != nil {
			t.Fatalf("%+v: noisy: %v", opts, err)
		}
		if !a.NoiseFree {
			t.Fatalf("%+v: zero model missed the ideal fast path", opts)
		}
		if a.Expectation != want {
			t.Fatalf("%+v: zero-noise ⟨Z⟩ = %v, ideal = %v (must be identical)",
				opts, a.Expectation, want)
		}
		if a.StdErr != 0 {
			t.Fatalf("%+v: zero-noise stderr %v, want exactly 0", opts, a.StdErr)
		}

		// Same seed ⇒ identical counts; and a nil model agrees with the
		// zero-probability model exactly (same elision, same fast path).
		nilOpts := opts
		b, err := SimulateNoisy(c, nilOpts, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Counts) == 0 || len(a.Counts) != len(b.Counts) {
			t.Fatalf("%+v: counts differ between zero model and nil model", opts)
		}
		for k, v := range a.Counts {
			if b.Counts[k] != v {
				t.Fatalf("%+v: count[%d] = %d vs %d", opts, k, v, b.Counts[k])
			}
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
	if _, err := Simulate(c, Options{Noise: noise.Global(noise.Depolarizing(0.01))}); err == nil {
		t.Fatal("Simulate accepted a noisy model")
	}
	// A zero model is fine (it IS ideal).
	if _, err := Simulate(c, Options{Noise: zeroModel()}); err != nil {
		t.Fatalf("Simulate rejected a zero model: %v", err)
	}
}

// TestSimulateNoisySeededReproducibility: fixed (circuit, model, config)
// reproduces counts and expectation exactly, across repeated runs and
// worker counts.
func TestSimulateNoisySeededReproducibility(t *testing.T) {
	c, err := circuit.Named("ising", 6)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Noise: noise.Global(noise.Depolarizing(0.02)).WithReadout(0.01, 0.01)}
	run := func(workers int) *noise.Ensemble {
		e, err := SimulateNoisy(c, opts, noise.RunConfig{
			Trajectories: 30, Seed: 42, Workers: workers, Shots: 300, Qubits: []int{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b, c8 := run(2), run(2), run(8)
	if a.Expectation != b.Expectation || a.Expectation != c8.Expectation {
		t.Fatal("expectation not reproducible across runs/workers")
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v || c8.Counts[k] != v {
			t.Fatalf("count[%d] not reproducible", k)
		}
	}
	if a.NoiseFree {
		t.Fatal("noisy run took the noise-free path")
	}
	if a.Stats.Locations == 0 {
		t.Fatal("no channel draws recorded")
	}
}

// TestSimulateNoisyDecay reruns the analytic depolarizing check through the
// public core surface (id-gate anchors, ⟨Z⟩ = (1−4p/3)^k).
func TestSimulateNoisyDecay(t *testing.T) {
	const p, k = 0.08, 6
	c := circuit.New("decay", 2)
	for i := 0; i < k; i++ {
		c.Append(gate.ID(0))
	}
	opts := Options{Noise: noise.OnGates(noise.Depolarizing(p), "id")}
	ens, err := SimulateNoisy(c, opts, noise.RunConfig{Trajectories: 3000, Seed: 5, Qubits: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-4*p/3, k)
	if math.Abs(ens.Expectation-want) > 6*ens.StdErr+1e-9 {
		t.Fatalf("⟨Z⟩ = %.4f ± %.4f, analytic %.4f", ens.Expectation, ens.StdErr, want)
	}
}
