package gate

import (
	"fmt"
	"math/cmplx"
)

// Kraus is a set of Kraus operators {K_i} over a shared qubit count k,
// representing the completely positive trace-preserving map
// ρ → Σ_i K_i ρ K_i†. Unlike a Gate's matrix, the individual operators are
// generally not unitary; only the completeness relation Σ_i K_i† K_i = I
// holds. The noise layer unravels such channels into stochastic trajectory
// insertions over the state-vector kernels, and the density-matrix engine
// applies them exactly as superoperators. k = 1 is the common case; k > 1
// expresses correlated multi-qubit channels (Validate rejects a set whose
// operators act on different qubit counts).
type Kraus []Matrix

// NumQubits returns the qubit count the operators act on (0 for an empty set).
func (k Kraus) NumQubits() int {
	if len(k) == 0 {
		return 0
	}
	return k[0].K
}

// Validate checks that the set is non-empty, every operator acts on the same
// qubit count, and the completeness relation Σ K†K = I holds within tol.
func (k Kraus) Validate(tol float64) error {
	if len(k) == 0 {
		return fmt.Errorf("gate: empty Kraus set")
	}
	q := k[0].K
	for i, m := range k {
		if m.K != q {
			return fmt.Errorf("gate: Kraus operator %d acts on %d qubits, want %d", i, m.K, q)
		}
		if len(m.Data) != m.Dim()*m.Dim() {
			return fmt.Errorf("gate: Kraus operator %d has %d entries, want %d", i, len(m.Data), m.Dim()*m.Dim())
		}
	}
	sum := NewMatrix(q)
	for _, m := range k {
		p := m.Dagger().Mul(m)
		for i := range sum.Data {
			sum.Data[i] += p.Data[i]
		}
	}
	if !sum.EqualTol(Identity(q), tol) {
		return fmt.Errorf("gate: Kraus set is not trace preserving (ΣK†K ≠ I within %g)", tol)
	}
	return nil
}

// IsIdentity reports whether the set is the trivial channel: a single
// operator equal to the identity within tol (the do-nothing map the noise
// compiler elides).
func (k Kraus) IsIdentity(tol float64) bool {
	return len(k) == 1 && k[0].EqualTol(Identity(k[0].K), tol)
}

// Pauli indices for PauliMatrix and Pauli-channel probability vectors.
const (
	PauliI = iota
	PauliX
	PauliY
	PauliZ
)

// PauliMatrix returns the single-qubit Pauli matrix for the given index
// (PauliI, PauliX, PauliY, PauliZ).
func PauliMatrix(p int) Matrix {
	switch p {
	case PauliI:
		return Identity(1)
	case PauliX:
		return m2(0, 1, 1, 0)
	case PauliY:
		return m2(0, -iC, iC, 0)
	case PauliZ:
		return m2(1, 0, 0, -1)
	default:
		panic(fmt.Sprintf("gate: unknown Pauli index %d", p))
	}
}

// PauliMatrixK returns the k-fold Pauli product selected by idx: factor j
// (acting on bit j of the matrix index, little-endian) is the single-qubit
// Pauli with index (idx >> 2j) & 3. idx therefore ranges over [0, 4^k), and
// PauliMatrixK(1, p) == PauliMatrix(p). Multi-qubit Pauli-mixture channels
// (correlated depolarizing) build their Kraus operators from it.
func PauliMatrixK(k, idx int) Matrix {
	if k < 1 || idx < 0 || idx >= 1<<uint(2*k) {
		panic(fmt.Sprintf("gate: PauliMatrixK index %d out of [0,4^%d)", idx, k))
	}
	out := PauliMatrix(idx & 3)
	for j := 1; j < k; j++ {
		out = PauliMatrix((idx >> uint(2*j)) & 3).Kron(out)
	}
	return out
}

// PauliGate returns the named Gate applying Pauli p to qubit q; PauliI
// returns the explicit identity gate.
func PauliGate(p, q int) Gate {
	switch p {
	case PauliI:
		return ID(q)
	case PauliX:
		return X(q)
	case PauliY:
		return Y(q)
	case PauliZ:
		return Z(q)
	default:
		panic(fmt.Sprintf("gate: unknown Pauli index %d", p))
	}
}

// Conj returns the element-wise complex conjugate of m (NOT the dagger: no
// transpose). The density-matrix engine applies conj(U) on the bra index
// bits of vec(ρ) while U acts on the ket bits, realizing ρ → UρU†.
func (m Matrix) Conj() Matrix {
	out := NewMatrix(m.K)
	for i, v := range m.Data {
		out.Data[i] = cmplx.Conj(v)
	}
	return out
}

// Scale returns the matrix m multiplied by the scalar c.
func (m Matrix) Scale(c complex128) Matrix {
	out := NewMatrix(m.K)
	for i, v := range m.Data {
		out.Data[i] = c * v
	}
	return out
}

// MaxAbsDiff returns the largest element-wise |m−o| (∞-norm distance);
// panics on qubit-count mismatch.
func (m Matrix) MaxAbsDiff(o Matrix) float64 {
	if m.K != o.K {
		panic(fmt.Sprintf("gate: MaxAbsDiff dimension mismatch: %d vs %d qubits", m.K, o.K))
	}
	d := 0.0
	for i := range m.Data {
		if v := cmplx.Abs(m.Data[i] - o.Data[i]); v > d {
			d = v
		}
	}
	return d
}
