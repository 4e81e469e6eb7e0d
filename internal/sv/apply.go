package sv

import (
	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// This file holds the raw-matrix entry points the noise layer needs: applying
// an arbitrary (not necessarily unitary) operator to one or more qubits,
// computing the squared norm such an application would produce without
// mutating the state, and rescaling amplitudes. Together they implement exact
// norm-weighted Kraus selection: p_i = ‖K_i ψ‖², apply the chosen K_i, then
// scale by 1/√p_i. Each lowers its operator to a kernel op per call; the
// trajectory engine lowers its Kraus operators once and uses Apply/Norm2.

// ApplyMatrix1 applies an arbitrary 2×2 matrix to qubit t. Unlike ApplyGate
// it does not require a named gate and does not assume unitarity, so the
// state's norm may change (Kraus operators, projectors).
func (s *State) ApplyMatrix1(t int, m gate.Matrix) { s.ApplyMatrixK([]int{t}, m) }

// Kraus1Norm2 returns ‖Kψ‖² for the 2×2 operator K on qubit t without
// mutating the state — the branch probability of selecting K in a
// trajectory unraveling (1 for unitary K on a normalized state).
func (s *State) Kraus1Norm2(t int, m gate.Matrix) float64 { return s.KrausKNorm2([]int{t}, m) }

// ApplyMatrixK applies an arbitrary 2^k×2^k matrix to the listed target
// qubits (targets[j] is bit j of the matrix index, little-endian; the
// targets need not be sorted). It assumes nothing about unitarity, so Kraus
// operators and superoperators apply through it.
func (s *State) ApplyMatrixK(targets []int, m gate.Matrix) {
	op := DenseOp(s.N, targets, nil, m, prof.Kraus)
	s.Apply(&op)
}

// KrausKNorm2 returns ‖Kψ‖² for the 2^k×2^k operator K on the listed target
// qubits without mutating the state — the branch probability of selecting K
// in a k-qubit trajectory unraveling.
func (s *State) KrausKNorm2(targets []int, m gate.Matrix) float64 {
	op := DenseOp(s.N, targets, nil, m, prof.Kraus)
	return s.Norm2(&op)
}

// Scale multiplies every amplitude by c (used to renormalize after a Kraus
// application: c = 1/√p). Its callers hold single-worker trajectory states,
// so the sweep is serial.
func (s *State) Scale(c complex128) {
	t0 := s.profStart()
	for i := range s.Amps {
		s.Amps[i] *= c
	}
	s.profRecord(prof.Kraus, 0, t0, int64(len(s.Amps)), int64(len(s.Amps))*bytesPerAmpRW, 0)
}
