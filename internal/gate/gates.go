package gate

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sort"
)

// Gate is one operation in a circuit: a named unitary applied to an ordered
// list of qubits. The first Ctrl entries of Qubits are control qubits; the
// rest are targets of the base unitary. Params holds rotation angles in
// radians (meaning depends on Name).
//
// Args, when non-nil, is a symbolic overlay over Params with exactly one
// Param per Params slot: literal entries mirror the concrete angle, and
// symbolic entries (named symbols in affine form) mark the gate as part of
// a parameterized template. For such gates Params holds placeholder angles
// (see Param.Placeholder) so matrix construction and fusion keep working;
// Bind produces the concrete gate for a given symbol environment. A nil
// Args means the gate is fully concrete — the overwhelmingly common case —
// and every pre-existing code path behaves exactly as before.
type Gate struct {
	Name   string
	Qubits []int
	Params []float64
	Ctrl   int     // number of leading control qubits
	Args   []Param // optional symbolic overlay; nil = concrete
}

// Arity returns the total number of qubits the gate touches.
func (g Gate) Arity() int { return len(g.Qubits) }

// Controls returns the control qubits (may be empty).
func (g Gate) Controls() []int { return g.Qubits[:g.Ctrl] }

// Targets returns the non-control qubits.
func (g Gate) Targets() []int { return g.Qubits[g.Ctrl:] }

// SortedQubits returns the touched qubits in ascending order.
func (g Gate) SortedQubits() []int {
	qs := append([]int(nil), g.Qubits...)
	sort.Ints(qs)
	return qs
}

// String renders e.g. "cx q1,q3", "rz(0.7854) q2", or "rz(2*gamma) q2".
func (g Gate) String() string {
	s := g.Name
	if len(g.Params) > 0 {
		s += "("
		for i, p := range g.Params {
			if i > 0 {
				s += ","
			}
			if i < len(g.Args) {
				s += g.Args[i].String()
			} else {
				s += fmt.Sprintf("%.6g", p)
			}
		}
		s += ")"
	}
	s += " "
	for i, q := range g.Qubits {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("q%d", q)
	}
	return s
}

// Validate reports an error if the gate reuses a qubit or has an unknown
// name. It allocates nothing on a valid gate.
func (g Gate) Validate() error {
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("gate %s: negative qubit %d", g.Name, q)
		}
		if slices.Contains(g.Qubits[:i], q) {
			return fmt.Errorf("gate %s: duplicate qubit %d", g.Name, q)
		}
	}
	if g.Args != nil && len(g.Args) != len(g.Params) {
		return fmt.Errorf("gate %s: %d symbolic args for %d params", g.Name, len(g.Args), len(g.Params))
	}
	if baseBuilder(g.Name) == nil {
		return unknownGate(g.Name)
	}
	return nil
}

// BaseMatrix returns the unitary acting on Targets() only (controls are
// handled structurally by the simulator kernels).
func (g Gate) BaseMatrix() Matrix {
	m, err := baseMatrixFor(g)
	if err != nil {
		panic(err)
	}
	return m
}

// FullMatrix returns the unitary on all Arity() qubits, controls included.
func (g Gate) FullMatrix() Matrix {
	return g.BaseMatrix().Controlled(g.Ctrl)
}

// Remap returns a copy of g with every qubit q replaced by f(q).
func (g Gate) Remap(f func(int) int) Gate {
	qs := make([]int, len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = f(q)
	}
	out := g
	out.Qubits = qs
	out.Params = append([]float64(nil), g.Params...)
	out.Args = append([]Param(nil), g.Args...)
	return out
}

func m2(a, b, c, d complex128) Matrix {
	return Matrix{K: 1, Data: []complex128{a, b, c, d}}
}

var (
	invSqrt2 = complex(1/math.Sqrt2, 0)
	iC       = complex(0, 1)
)

func u3Matrix(theta, phi, lambda float64) Matrix {
	ct := complex(math.Cos(theta/2), 0)
	st := complex(math.Sin(theta/2), 0)
	return m2(
		ct, -cmplx.Exp(complex(0, lambda))*st,
		cmplx.Exp(complex(0, phi))*st, cmplx.Exp(complex(0, phi+lambda))*ct,
	)
}

func swapMatrix() Matrix {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(1, 2, 1)
	m.Set(2, 1, 1)
	m.Set(3, 3, 1)
	return m
}

// baseMatrixFor computes the matrix on target qubits for a named gate.
func baseMatrixFor(g Gate) (Matrix, error) {
	build := baseBuilder(g.Name)
	if build == nil {
		return Matrix{}, unknownGate(g.Name)
	}
	return build(g.Params), nil
}

func unknownGate(name string) error { return fmt.Errorf("gate: unknown gate %q", name) }

// params are a gate's angles: at(i) is parameter i, 0 when absent.
type params []float64

func (p params) at(i int) float64 {
	if i < len(p) {
		return p[i]
	}
	return 0
}

// baseBuilder returns the function that builds a named gate's base matrix
// from its parameters, or nil for an unknown name; Validate asks for it
// without building the matrix.
func baseBuilder(name string) func(p params) Matrix {
	switch name {
	case "id":
		return func(params) Matrix { return Identity(1) }
	case "x", "cx", "ccx", "mcx":
		return func(params) Matrix { return m2(0, 1, 1, 0) }
	case "y", "cy":
		return func(params) Matrix { return m2(0, -iC, iC, 0) }
	case "z", "cz", "mcz":
		return func(params) Matrix { return m2(1, 0, 0, -1) }
	case "h", "ch":
		return func(params) Matrix { return m2(invSqrt2, invSqrt2, invSqrt2, -invSqrt2) }
	case "s":
		return func(params) Matrix { return m2(1, 0, 0, iC) }
	case "sdg":
		return func(params) Matrix { return m2(1, 0, 0, -iC) }
	case "t":
		return func(params) Matrix { return m2(1, 0, 0, cmplx.Exp(complex(0, math.Pi/4))) }
	case "tdg":
		return func(params) Matrix { return m2(1, 0, 0, cmplx.Exp(complex(0, -math.Pi/4))) }
	case "sx":
		return func(params) Matrix { return m2(0.5+0.5i, 0.5-0.5i, 0.5-0.5i, 0.5+0.5i) }
	case "rx", "crx":
		return func(p params) Matrix { return u3MatrixRX(p.at(0)) }
	case "ry", "cry":
		return func(p params) Matrix {
			ct := complex(math.Cos(p.at(0)/2), 0)
			st := complex(math.Sin(p.at(0)/2), 0)
			return m2(ct, -st, st, ct)
		}
	case "rz", "crz":
		return func(p params) Matrix {
			return m2(cmplx.Exp(complex(0, -p.at(0)/2)), 0, 0, cmplx.Exp(complex(0, p.at(0)/2)))
		}
	case "p", "u1", "cp", "cu1", "mcp":
		return func(p params) Matrix { return m2(1, 0, 0, cmplx.Exp(complex(0, p.at(0)))) }
	case "u2":
		return func(p params) Matrix { return u3Matrix(math.Pi/2, p.at(0), p.at(1)) }
	case "u3", "u", "cu3":
		return func(p params) Matrix { return u3Matrix(p.at(0), p.at(1), p.at(2)) }
	case "swap", "cswap":
		return func(params) Matrix { return swapMatrix() }
	case "rzz":
		return func(p params) Matrix {
			m := NewMatrix(2)
			e0 := cmplx.Exp(complex(0, -p.at(0)/2))
			e1 := cmplx.Exp(complex(0, p.at(0)/2))
			m.Set(0, 0, e0)
			m.Set(1, 1, e1)
			m.Set(2, 2, e1)
			m.Set(3, 3, e0)
			return m
		}
	}
	return nil
}

func u3MatrixRX(theta float64) Matrix {
	ct := complex(math.Cos(theta/2), 0)
	st := complex(math.Sin(theta/2), 0)
	return m2(ct, -iC*st, -iC*st, ct)
}

// --- Constructors for the standard catalog ---

// ID returns the identity gate on q.
func ID(q int) Gate { return Gate{Name: "id", Qubits: []int{q}} }

// X returns the Pauli-X (NOT) gate on q.
func X(q int) Gate { return Gate{Name: "x", Qubits: []int{q}} }

// Y returns the Pauli-Y gate on q.
func Y(q int) Gate { return Gate{Name: "y", Qubits: []int{q}} }

// Z returns the Pauli-Z gate on q.
func Z(q int) Gate { return Gate{Name: "z", Qubits: []int{q}} }

// H returns the Hadamard gate on q.
func H(q int) Gate { return Gate{Name: "h", Qubits: []int{q}} }

// S returns the phase gate diag(1, i) on q.
func S(q int) Gate { return Gate{Name: "s", Qubits: []int{q}} }

// Sdg returns the inverse phase gate diag(1, -i) on q.
func Sdg(q int) Gate { return Gate{Name: "sdg", Qubits: []int{q}} }

// T returns the T gate diag(1, e^{iπ/4}) on q.
func T(q int) Gate { return Gate{Name: "t", Qubits: []int{q}} }

// Tdg returns the inverse T gate on q.
func Tdg(q int) Gate { return Gate{Name: "tdg", Qubits: []int{q}} }

// SX returns the square-root-of-X gate on q.
func SX(q int) Gate { return Gate{Name: "sx", Qubits: []int{q}} }

// RX returns an X-axis rotation by theta on q.
func RX(theta float64, q int) Gate {
	return Gate{Name: "rx", Qubits: []int{q}, Params: []float64{theta}}
}

// RY returns a Y-axis rotation by theta on q.
func RY(theta float64, q int) Gate {
	return Gate{Name: "ry", Qubits: []int{q}, Params: []float64{theta}}
}

// RZ returns a Z-axis rotation by theta on q.
func RZ(theta float64, q int) Gate {
	return Gate{Name: "rz", Qubits: []int{q}, Params: []float64{theta}}
}

// P returns the phase gate diag(1, e^{iλ}) on q.
func P(lambda float64, q int) Gate {
	return Gate{Name: "p", Qubits: []int{q}, Params: []float64{lambda}}
}

// U2 returns the OpenQASM u2(φ, λ) gate on q.
func U2(phi, lambda float64, q int) Gate {
	return Gate{Name: "u2", Qubits: []int{q}, Params: []float64{phi, lambda}}
}

// U3 returns the OpenQASM u3(θ, φ, λ) gate on q.
func U3(theta, phi, lambda float64, q int) Gate {
	return Gate{Name: "u3", Qubits: []int{q}, Params: []float64{theta, phi, lambda}}
}

// CX returns a controlled-X with control c and target t.
func CX(c, t int) Gate { return Gate{Name: "cx", Qubits: []int{c, t}, Ctrl: 1} }

// CY returns a controlled-Y with control c and target t.
func CY(c, t int) Gate { return Gate{Name: "cy", Qubits: []int{c, t}, Ctrl: 1} }

// CZ returns a controlled-Z with control c and target t.
func CZ(c, t int) Gate { return Gate{Name: "cz", Qubits: []int{c, t}, Ctrl: 1} }

// CH returns a controlled-Hadamard with control c and target t.
func CH(c, t int) Gate { return Gate{Name: "ch", Qubits: []int{c, t}, Ctrl: 1} }

// CP returns a controlled-phase gate with control c and target t.
func CP(lambda float64, c, t int) Gate {
	return Gate{Name: "cp", Qubits: []int{c, t}, Params: []float64{lambda}, Ctrl: 1}
}

// CRX returns a controlled X-rotation.
func CRX(theta float64, c, t int) Gate {
	return Gate{Name: "crx", Qubits: []int{c, t}, Params: []float64{theta}, Ctrl: 1}
}

// CRY returns a controlled Y-rotation.
func CRY(theta float64, c, t int) Gate {
	return Gate{Name: "cry", Qubits: []int{c, t}, Params: []float64{theta}, Ctrl: 1}
}

// CRZ returns a controlled Z-rotation.
func CRZ(theta float64, c, t int) Gate {
	return Gate{Name: "crz", Qubits: []int{c, t}, Params: []float64{theta}, Ctrl: 1}
}

// CU3 returns a controlled u3 gate.
func CU3(theta, phi, lambda float64, c, t int) Gate {
	return Gate{Name: "cu3", Qubits: []int{c, t}, Params: []float64{theta, phi, lambda}, Ctrl: 1}
}

// SWAP returns the swap of qubits a and b.
func SWAP(a, b int) Gate { return Gate{Name: "swap", Qubits: []int{a, b}} }

// RZZ returns the two-qubit ZZ interaction exp(-iθ/2 Z⊗Z) on a and b.
func RZZ(theta float64, a, b int) Gate {
	return Gate{Name: "rzz", Qubits: []int{a, b}, Params: []float64{theta}}
}

// CCX returns the Toffoli gate with controls c1, c2 and target t.
func CCX(c1, c2, t int) Gate { return Gate{Name: "ccx", Qubits: []int{c1, c2, t}, Ctrl: 2} }

// CSWAP returns the Fredkin gate: swap a and b when c is 1.
func CSWAP(c, a, b int) Gate { return Gate{Name: "cswap", Qubits: []int{c, a, b}, Ctrl: 1} }

// MCX returns a multi-controlled X with the given controls and target t.
func MCX(ctrls []int, t int) Gate {
	qs := append(append([]int(nil), ctrls...), t)
	return Gate{Name: "mcx", Qubits: qs, Ctrl: len(ctrls)}
}

// MCZ returns a multi-controlled Z with the given controls and target t.
func MCZ(ctrls []int, t int) Gate {
	qs := append(append([]int(nil), ctrls...), t)
	return Gate{Name: "mcz", Qubits: qs, Ctrl: len(ctrls)}
}

// MCP returns a multi-controlled phase gate.
func MCP(lambda float64, ctrls []int, t int) Gate {
	qs := append(append([]int(nil), ctrls...), t)
	return Gate{Name: "mcp", Qubits: qs, Params: []float64{lambda}, Ctrl: len(ctrls)}
}
