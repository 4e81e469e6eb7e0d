package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/noise"
	"hisvsim/internal/sv"
)

func TestReadoutSpecValidate(t *testing.T) {
	bad := []ReadoutSpec{
		{}, // empty
		{Shots: -1},
		{Statevector: true, Trajectories: -2},
		{Marginals: [][]int{{0, 9}}},
		{Marginals: [][]int{{1, 1}}},
		{Observables: []Observable{{Paulis: "X", Qubits: []int{9}}}},
		{Observables: []Observable{{Paulis: "XX", Qubits: []int{1}}}},
		{Observables: []Observable{{Paulis: "W", Qubits: []int{0}}}},
		{Observables: []Observable{{Paulis: "XX", Qubits: []int{2, 2}}}},
	}
	for _, spec := range bad {
		if err := spec.Validate(8); err == nil {
			t.Errorf("spec %+v validated but should not", spec)
		}
	}
	good := ReadoutSpec{
		Statevector: true, Shots: 10, Seed: 1,
		Marginals:   [][]int{{0, 1}, {3}},
		Observables: []Observable{{Paulis: "XYZ", Qubits: []int{0, 2, 4}}, {Paulis: "ZZ", Qubits: []int{5, 5}}},
	}
	if err := good.Validate(8); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestEvaluateMatchesSingleReadouts checks the unified path against each
// read-out computed directly from a flat reference simulation.
func TestEvaluateMatchesSingleReadouts(t *testing.T) {
	c, err := circuit.Named("ising", 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	spec := ReadoutSpec{
		Statevector: true, Shots: 200, Seed: 11,
		Marginals: [][]int{{0, 1, 2}, {5}},
		Observables: []Observable{
			{Name: "zz", Coeff: -1, Paulis: "ZZ", Qubits: []int{0, 1}},
			{Name: "x3", Paulis: "X", Qubits: []int{3}},
			{Name: "y5z6", Coeff: 0.25, Paulis: "YZ", Qubits: []int{5, 6}},
		},
	}
	rep, err := Evaluate(c, Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim == nil || rep.Ensemble != nil {
		t.Fatalf("ideal evaluate: Sim=%v Ensemble=%v", rep.Sim, rep.Ensemble)
	}
	if rep.Sim.Backend != "hier" {
		t.Errorf("default backend = %q, want hier", rep.Sim.Backend)
	}
	if len(rep.Amplitudes) != 1<<7 {
		t.Fatalf("amplitudes: got %d", len(rep.Amplitudes))
	}
	total := 0
	for _, oc := range rep.Counts {
		total += oc.N
	}
	if total != 200 || len(rep.Samples) != 200 {
		t.Fatalf("shots: %d samples, counts sum %d", len(rep.Samples), total)
	}
	for k, qs := range spec.Marginals {
		want := ref.Marginal(qs)
		for i := range want {
			if math.Abs(rep.Marginals[k][i]-want[i]) > 1e-9 {
				t.Errorf("marginal %d[%d]: got %g want %g", k, i, rep.Marginals[k][i], want[i])
			}
		}
	}
	wants := []float64{
		-ref.ExpectationPauliZString([]int{0, 1}),
		ref.ExpectationPauli("X", []int{3}),
		0.25 * ref.ExpectationPauli("YZ", []int{5, 6}),
	}
	for k, ov := range rep.Observables {
		if ov.Name != spec.Observables[k].Name {
			t.Errorf("observable %d: name %q", k, ov.Name)
		}
		if math.Abs(ov.Value-wants[k]) > 1e-9 {
			t.Errorf("observable %d: got %.12f want %.12f", k, ov.Value, wants[k])
		}
	}
}

// TestPauliObservablesAcrossBackendsAndRanks is the satellite differential
// test: X/Y/Z mixes evaluated through every backend and rank count agree
// with the flat reference to 1e-9.
func TestPauliObservablesAcrossBackendsAndRanks(t *testing.T) {
	c, err := circuit.Named("qft", 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observable{
		{Paulis: "X", Qubits: []int{0}},
		{Paulis: "Y", Qubits: []int{4}},
		{Paulis: "XY", Qubits: []int{1, 6}},
		{Paulis: "ZXY", Qubits: []int{2, 3, 7}},
		{Coeff: -0.5, Paulis: "YX", Qubits: []int{5, 0}},
	}
	wants := make([]float64, len(obs))
	for k, ob := range obs {
		wants[k] = ref.ExpectationPauliString(sv.PauliString{Coeff: ob.Coeff, Ops: ob.Paulis, Qubits: ob.Qubits})
	}
	cases := []Options{
		{Backend: "flat"},
		{Backend: "hier", Strategy: "dagp", Lm: 5, Seed: 3},
		{Backend: "hier", Strategy: "nat", Lm: 4, Fuse: FuseOff},
		{Backend: "dist", Ranks: 2, Seed: 3},
		{Backend: "dist", Ranks: 4, SecondLevelLm: 4, Seed: 3},
		{Backend: "baseline", Ranks: 2},
		{Ranks: 4, Seed: 3}, // default resolution → dist
	}
	for _, opts := range cases {
		rep, err := Evaluate(c, opts, ReadoutSpec{Observables: obs})
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for k, ov := range rep.Observables {
			if math.Abs(ov.Value-wants[k]) > 1e-9 {
				t.Errorf("%+v observable %d: got %.12f want %.12f", opts, k, ov.Value, wants[k])
			}
		}
	}
}

// TestEvaluateNoisyXDecayUnderPhaseDamping is the analytic-decay check:
// |+⟩ under k phase-damping hits keeps ⟨X⟩ = (1−γ)^{k/2} in expectation
// (each off-diagonal element shrinks by √(1−γ) per application).
func TestEvaluateNoisyXDecayUnderPhaseDamping(t *testing.T) {
	const gamma = 0.08
	const hits = 6
	c := circuit.New("xdecay", 1)
	c.Append(gate.H(0))
	for i := 1; i < hits; i++ {
		c.Append(gate.ID(0)) // each gate fires the global channel once more
	}
	model := noise.Global(noise.PhaseDamping(gamma))
	rep, err := Evaluate(c, Options{Noise: model}, ReadoutSpec{
		Observables:  []Observable{{Name: "x", Paulis: "X", Qubits: []int{0}}},
		Trajectories: 3000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ensemble == nil || rep.Sim != nil {
		t.Fatalf("noisy evaluate: Sim=%v Ensemble=%v", rep.Sim, rep.Ensemble)
	}
	ov := rep.Observables[0]
	want := math.Pow(1-gamma, float64(hits)/2)
	tol := 4*ov.StdErr + 1e-6
	if math.Abs(ov.Value-want) > tol {
		t.Errorf("⟨X⟩ after %d phase-damping hits: got %.6f ± %.6f, want %.6f (tol %.6f)",
			hits, ov.Value, ov.StdErr, want, tol)
	}
	if ov.StdErr <= 0 {
		t.Errorf("noisy observable reported zero stderr")
	}
	if rep.Trajectories != 3000 {
		t.Errorf("trajectories: got %d", rep.Trajectories)
	}
}

// TestEvaluateStatevectorRejectedUnderNoise pins the API contract.
func TestEvaluateStatevectorRejectedUnderNoise(t *testing.T) {
	c, _ := circuit.Named("bv", 4)
	model := noise.Global(noise.Depolarizing(0.01))
	if _, err := Evaluate(c, Options{Noise: model}, ReadoutSpec{Statevector: true}); err == nil {
		t.Fatal("statevector readout accepted under an effective noise model")
	}
}

// TestNoisyPathRejectsUnknownBackend: an unresolvable Options.Backend must
// fail under noise too, not silently run the trajectory engine.
func TestNoisyPathRejectsUnknownBackend(t *testing.T) {
	c, _ := circuit.Named("bv", 4)
	model := noise.Global(noise.Depolarizing(0.01))
	spec := ReadoutSpec{Observables: []Observable{{Paulis: "Z", Qubits: []int{0}}}, Trajectories: 2}
	if _, err := Evaluate(c, Options{Backend: "warp-drive", Noise: model}, spec); err == nil {
		t.Fatal("unknown backend accepted on the noisy path")
	}
	if _, err := SimulateNoisy(c, Options{Backend: "warp-drive", Noise: model},
		noise.RunConfig{Trajectories: 2, Qubits: []int{0}}); err == nil {
		t.Fatal("SimulateNoisy accepted an unknown backend")
	}
}

// TestEvaluateZeroNoiseIsIdeal: a zero-effect model rides the ideal path.
func TestEvaluateZeroNoiseIsIdeal(t *testing.T) {
	c, _ := circuit.Named("bv", 5)
	rep, err := Evaluate(c, Options{Noise: zeroModelNoReadout()}, ReadoutSpec{Statevector: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim == nil {
		t.Fatal("zero-effect model did not take the ideal path")
	}
	want, _ := Simulate(c, Options{})
	for i := range want.State.Amps {
		if rep.Amplitudes[i] != want.State.Amps[i] {
			t.Fatalf("amplitude %d differs from ideal Simulate", i)
		}
	}
}

// zeroModelNoReadout: structurally noisy, zero effect, no readout stanza
// (IsZero must hold so Evaluate takes the ideal branch).
func zeroModelNoReadout() *noise.Model {
	return noise.NewModel(noise.Rule{Channel: noise.Depolarizing(0)})
}

// TestHistogramForms: sort + run-length of the samples, the ordered form of
// a map tally and the sum of the two halves' histograms are one histogram —
// ascending, one outcome per basis, nothing spare behind it.
func TestHistogramForms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]int, 500)
	tally, low, high := map[int]int{}, map[int]int{}, map[int]int{}
	for i := range samples {
		x := rng.Intn(64) * rng.Intn(64)
		samples[i] = x
		tally[x]++
		if i < 200 {
			low[x]++
		} else {
			high[x]++
		}
	}
	h := histogramOf(samples)
	if len(h) != len(tally) || cap(h) != len(h) {
		t.Fatalf("%d outcomes in a slice of %d, want %d", len(h), cap(h), len(tally))
	}
	for i, oc := range h {
		if oc.N != tally[oc.Basis] || (i > 0 && oc.Basis <= h[i-1].Basis) {
			t.Fatalf("outcome %d = %+v, tally says %d", i, oc, tally[oc.Basis])
		}
	}
	if !reflect.DeepEqual(h, HistogramFromMap(tally)) {
		t.Fatal("HistogramFromMap(tally) differs from histogramOf(samples)")
	}
	if sum := HistogramFromMap(low).Add(HistogramFromMap(high)); !reflect.DeepEqual(sum, h) {
		t.Fatalf("sum of the halves differs: %v vs %v", sum, h)
	}
	if HistogramFromMap(nil) != nil || len(histogramOf(nil)) != 0 {
		t.Fatal("no samples must stay no histogram")
	}
}
