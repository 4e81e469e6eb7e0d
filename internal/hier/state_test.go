package hier

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
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

// ExecutePlanFrom with every qubit named clear on a fresh |0…0⟩ is
// ExecutePlan, which reads the same mask off the amplitudes: == amplitudes
// and == metrics. Any smaller mask is valid too — it skips and pins less
// (mask 0 skips no sweep), and may change the gate order inside a part
// (support-first), so the state agrees with the flat reference to rounding.
func TestExecutePlanFromKnownClearQubits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []*circuit.Circuit{circuit.QFT(10), circuit.Ising(10, 2), circuit.CC(10), circuit.Random(9, 60, 3)} {
		for _, s := range []partition.Strategy{partition.Nat{}, dagp.Partitioner{}} {
			pl, err := s.Partition(dag.FromCircuit(c), 5)
			if err != nil {
				t.Fatal(err)
			}
			n := c.NumQubits
			for _, opts := range []Options{{Fuse: true, Workers: 1}, {Workers: 2}} {
				name := fmt.Sprintf("%s/%s/fuse=%v", c.Name, s.Name(), opts.Fuse)
				read, known := sv.NewState(n), sv.NewState(n)
				mr, err := ExecutePlan(pl, read, opts)
				if err != nil {
					t.Fatal(err)
				}
				mk, err := ExecutePlanFrom(pl, known, 1<<uint(n)-1, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(read.Amps, known.Amps) || !reflect.DeepEqual(mr, mk) {
					t.Errorf("%s: the full mask differs from the mask read off |0…0⟩", name)
				}

				// From |0…0⟩ and from a prepared state clear on some qubits,
				// with mask 0 and random subsets of its clear qubits.
				prep := sv.NewState(n)
				for q := range n {
					if rng.Intn(2) == 0 {
						if err := prep.ApplyGate(gate.U3(rng.Float64()*3, rng.Float64()*6, rng.Float64()*6, q)); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, start := range []*sv.State{sv.NewState(n), prep} {
					want := start.Clone()
					if err := want.ApplyCircuit(c); err != nil {
						t.Fatal(err)
					}
					clearBits := start.ClearQubits()
					for _, mask := range []int{0, clearBits & rng.Int(), clearBits & rng.Int(), clearBits} {
						got := start.Clone()
						m, err := ExecutePlanFrom(pl, got, mask, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !got.EqualTol(want, 1e-9) {
							t.Errorf("%s: clear mask %b of %b: state off the flat reference", name, mask, clearBits)
						}
						if mask == 0 && m.SkippedSweeps != 0 {
							t.Errorf("%s: %d sweeps skipped with no qubit named clear", name, m.SkippedSweeps)
						}
					}
				}
			}
		}
	}
	pl, err := partition.Nat{}.Partition(dag.FromCircuit(circuit.QFT(4)), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range []int{1 << 5, -1} {
		if _, err := ExecutePlanFrom(pl, sv.NewState(5), mask, Options{}); err == nil {
			t.Errorf("clear mask %#x outside a 5-qubit state accepted", mask)
		}
	}
}
