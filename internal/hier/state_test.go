package hier

import (
	"math"
	"math/rand"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

// ExecutePlan must be correct on an arbitrary prepared state, not only on
// |0…0⟩ — the executor is a pure unitary applicator.
func TestExecutePlanOnPreparedState(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(4))
	prep := sv.NewState(n)
	norm := 0.0
	for i := range prep.Amps {
		prep.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(prep.Amps[i])*real(prep.Amps[i]) + imag(prep.Amps[i])*imag(prep.Amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range prep.Amps {
		prep.Amps[i] /= complex(norm, 0)
	}

	c := circuit.QFT(n)
	want := prep.Clone()
	if err := want.ApplyCircuit(c); err != nil {
		t.Fatal(err)
	}

	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 5)
	if err != nil {
		t.Fatal(err)
	}
	got := prep.Clone()
	if _, err := ExecutePlan(pl, got, Options{}); err != nil {
		t.Fatal(err)
	}
	if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Fatalf("prepared-state fidelity = %v", f)
	}
}

// A state wider than the circuit: the plan acts on the low qubits and the
// high (spectator) qubits must be untouched.
func TestExecutePlanOnWiderState(t *testing.T) {
	c := circuit.QFT(5)
	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := sv.NewState(7)
	// Put the spectator qubits in |11⟩ by moving the amplitude.
	st.Amps[0] = 0
	st.Amps[0b1100000] = 1
	if _, err := ExecutePlan(pl, st, Options{}); err != nil {
		t.Fatal(err)
	}
	// All probability must remain in the spectator-=11 subspace.
	p := 0.0
	for i := 0; i < st.Dim(); i++ {
		if i>>5 == 0b11 {
			p += st.BasisProbability(i)
		}
	}
	if math.Abs(p-1) > 1e-9 {
		t.Fatalf("spectator qubits disturbed: subspace probability %v", p)
	}
}
