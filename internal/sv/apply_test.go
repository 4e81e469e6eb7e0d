package sv

import (
	"math"
	"testing"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// randomState is shared with sv_test.go.

// applyMatrix applies any matrix, as the trajectory engine a Kraus operator.
func applyMatrix(s *State, targets []int, m gate.Matrix) {
	op := DenseOp(s.N, targets, nil, m, prof.Kraus)
	s.Apply(&op)
}

// krausNorm2 returns ‖Kψ‖² through the same dense op.
func krausNorm2(s *State, targets []int, m gate.Matrix) float64 {
	op := DenseOp(s.N, targets, nil, m, prof.Kraus)
	return s.Norm2(&op)
}

func TestApplyMatrix1NonUnitary(t *testing.T) {
	// Amplitude-damping K1 = [[0, √γ], [0, 0]] maps |1⟩ → √γ|0⟩.
	g := 0.36
	k1 := gate.NewMatrix(1)
	k1.Set(0, 1, complex(math.Sqrt(g), 0))
	s := NewState(1)
	s.Amps[0], s.Amps[1] = 0, 1 // |1⟩
	applyMatrix(s, []int{0}, k1)
	if math.Abs(real(s.Amps[0])-math.Sqrt(g)) > 1e-12 || s.Amps[1] != 0 {
		t.Fatalf("K1|1⟩ = %v, want (√γ, 0)", s.Amps)
	}
}

func TestKraus1Norm2MatchesApply(t *testing.T) {
	// ‖Kψ‖² computed in place must equal the norm² after actually applying K.
	g := 0.25
	k0 := gate.NewMatrix(1)
	k0.Set(0, 0, 1)
	k0.Set(1, 1, complex(math.Sqrt(1-g), 0))
	for _, q := range []int{0, 2, 4} {
		s := randomState(5, int64(q)+1)
		want := func() float64 {
			c := s.Clone()
			applyMatrix(c, []int{q}, k0)
			n := c.Norm()
			return n * n
		}()
		got := krausNorm2(s, []int{q}, k0)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("qubit %d: Norm2 = %.15f, applied norm² = %.15f", q, got, want)
		}
	}
	// Unitary operators have branch probability 1.
	s := randomState(4, 9)
	if p := krausNorm2(s, []int{1}, gate.PauliMatrix(gate.PauliY)); math.Abs(p-1) > 1e-12 {
		t.Fatalf("unitary branch probability %.15f, want 1", p)
	}
}

func TestKraus1Norm2Parallel(t *testing.T) {
	// The chunked parallel reduction must agree with the serial path.
	s := randomState(16, 3)
	g := 0.1
	k := gate.NewMatrix(1)
	k.Set(0, 0, 1)
	k.Set(1, 1, complex(math.Sqrt(1-g), 0))
	s.Workers = 1
	serial := krausNorm2(s, []int{7}, k)
	s.Workers = 4
	parallel := krausNorm2(s, []int{7}, k)
	if math.Abs(serial-parallel) > 1e-12 {
		t.Fatalf("serial %.15f vs parallel %.15f", serial, parallel)
	}
}

func TestScaleRenormalizes(t *testing.T) {
	s := randomState(6, 11)
	s.Scale(complex(0.5, 0))
	if math.Abs(s.Norm()-0.5) > 1e-12 {
		t.Fatalf("norm after Scale(0.5) = %g", s.Norm())
	}
	s.Scale(complex(2, 0))
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Fatalf("norm after rescale = %g", s.Norm())
	}
}

func TestApplyMatrix1MatchesGate(t *testing.T) {
	// For unitary matrices a dense op must agree with the named-gate path.
	s1 := randomState(3, 21)
	s2 := s1.Clone()
	if err := s1.ApplyGate(gate.H(1)); err != nil {
		t.Fatal(err)
	}
	applyMatrix(s2, []int{1}, gate.H(1).BaseMatrix())
	if !s1.EqualTol(s2, 1e-12) {
		t.Fatal("dense op disagrees with ApplyGate for H")
	}
}
