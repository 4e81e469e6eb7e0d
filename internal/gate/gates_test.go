package gate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"
)

// applyFull applies gate g to an n-qubit dense state vector using the gate's
// FullMatrix and explicit bit bookkeeping. It is deliberately independent of
// the production kernels in internal/sv so the two can cross-check.
func applyFull(n int, st []complex128, g Gate) []complex128 {
	m := g.FullMatrix()
	k := g.Arity()
	qs := g.Qubits
	dim := 1 << uint(n)
	out := make([]complex128, dim)
	var mask int
	for _, q := range qs {
		mask |= 1 << uint(q)
	}
	sub := make([]complex128, 1<<uint(k))
	for base := 0; base < dim; base++ {
		if base&mask != 0 {
			continue
		}
		// Gather the 2^k amplitudes whose non-gate bits equal base.
		for s := 0; s < 1<<uint(k); s++ {
			idx := base
			for j := 0; j < k; j++ {
				if s>>uint(j)&1 == 1 {
					idx |= 1 << uint(qs[j])
				}
			}
			sub[s] = st[idx]
		}
		res := m.ApplyVec(sub)
		for s := 0; s < 1<<uint(k); s++ {
			idx := base
			for j := 0; j < k; j++ {
				if s>>uint(j)&1 == 1 {
					idx |= 1 << uint(qs[j])
				}
			}
			out[idx] = res[s]
		}
	}
	return out
}

func applySeq(n int, st []complex128, gs []Gate) []complex128 {
	for _, g := range gs {
		st = applyFull(n, st, g)
	}
	return st
}

func basisState(n, i int) []complex128 {
	st := make([]complex128, 1<<uint(n))
	st[i] = 1
	return st
}

func statesEqual(a, b []complex128, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func TestAllCatalogMatricesUnitary(t *testing.T) {
	th, ph, la := 0.37, 1.21, -0.52
	gates := []Gate{
		ID(0), X(0), Y(0), Z(0), H(0), S(0), Sdg(0), T(0), Tdg(0), SX(0),
		RX(th, 0), RY(th, 0), RZ(th, 0), P(la, 0), U2(ph, la, 0), U3(th, ph, la, 0),
		CX(0, 1), CY(0, 1), CZ(0, 1), CH(0, 1), CP(la, 0, 1),
		CRX(th, 0, 1), CRY(th, 0, 1), CRZ(th, 0, 1), CU3(th, ph, la, 0, 1),
		SWAP(0, 1), RZZ(th, 0, 1),
		CCX(0, 1, 2), CSWAP(0, 1, 2),
		MCX([]int{0, 1, 2}, 3), MCZ([]int{0, 1}, 2), MCP(la, []int{0, 1, 2}, 3),
	}
	for _, g := range gates {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", g.Name, err)
			continue
		}
		if !g.FullMatrix().IsUnitary(tol) {
			t.Errorf("%s: full matrix not unitary", g.Name)
		}
	}
}

func TestValidateRejectsDuplicateQubit(t *testing.T) {
	if err := CX(1, 1).Validate(); err == nil {
		t.Error("CX(1,1) validated")
	}
	if err := (Gate{Name: "x", Qubits: []int{-1}}).Validate(); err == nil {
		t.Error("negative qubit validated")
	}
	if err := (Gate{Name: "nope", Qubits: []int{0}}).Validate(); err == nil {
		t.Error("unknown gate validated")
	}
}

// Validate accepts exactly the names baseMatrixFor builds: every case label
// of baseBuilder's switch, read from the source, passes both, and names
// outside it fail both.
func TestValidateAcceptsExactlyTheBuiltNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "gates.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var known []string
	ast.Inspect(f, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name != "baseBuilder" {
			return false
		}
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				name, err := strconv.Unquote(e.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				known = append(known, name)
			}
		}
		return true
	})
	if len(known) < 30 {
		t.Fatalf("read %d gate names off baseBuilder: %v", len(known), known)
	}
	unknown := []string{"", "nope", "rxx", "u4", "mcy"}
	for _, name := range known {
		unknown = append(unknown, strings.ToUpper(name), name+"_", " "+name)
	}
	for _, name := range known {
		g := Gate{Name: name, Qubits: []int{0, 1}, Params: []float64{0.1, 0.2, 0.3}}
		if err := g.Validate(); err != nil {
			t.Errorf("%q: Validate: %v", name, err)
		}
		if _, err := baseMatrixFor(g); err != nil {
			t.Errorf("%q: baseMatrixFor: %v", name, err)
		}
	}
	for _, name := range unknown {
		g := Gate{Name: name, Qubits: []int{0}}
		if g.Validate() == nil {
			t.Errorf("%q: Validate accepted an unknown name", name)
		}
		if _, err := baseMatrixFor(g); err == nil {
			t.Errorf("%q: baseMatrixFor built an unknown name", name)
		}
	}
}

func TestXFlipsBasisState(t *testing.T) {
	st := applyFull(2, basisState(2, 0), X(1))
	if !statesEqual(st, basisState(2, 2), tol) {
		t.Fatalf("X(1)|00> = %v", st)
	}
}

func TestCXTruthTable(t *testing.T) {
	// control=0, target=1 over 2 qubits.
	cases := map[int]int{0b00: 0b00, 0b01: 0b11, 0b10: 0b10, 0b11: 0b01}
	for in, want := range cases {
		st := applyFull(2, basisState(2, in), CX(0, 1))
		if !statesEqual(st, basisState(2, want), tol) {
			t.Errorf("CX|%02b> != |%02b>", in, want)
		}
	}
}

func TestCCXTruthTable(t *testing.T) {
	for in := 0; in < 8; in++ {
		want := in
		if in&0b011 == 0b011 {
			want = in ^ 0b100
		}
		st := applyFull(3, basisState(3, in), CCX(0, 1, 2))
		if !statesEqual(st, basisState(3, want), tol) {
			t.Errorf("CCX|%03b> wrong", in)
		}
	}
}

func TestSWAPExchanges(t *testing.T) {
	st := applyFull(2, basisState(2, 0b01), SWAP(0, 1))
	if !statesEqual(st, basisState(2, 0b10), tol) {
		t.Fatal("SWAP failed")
	}
}

func TestBellState(t *testing.T) {
	st := applySeq(2, basisState(2, 0), []Gate{H(0), CX(0, 1)})
	want := []complex128{invSqrt2, 0, 0, invSqrt2}
	if !statesEqual(st, want, tol) {
		t.Fatalf("Bell state = %v", st)
	}
}

func TestRotationComposition(t *testing.T) {
	// RZ(a)RZ(b) = RZ(a+b)
	a, b := 0.7, -1.3
	m := RZ(a, 0).BaseMatrix().Mul(RZ(b, 0).BaseMatrix())
	if !m.EqualTol(RZ(a+b, 0).BaseMatrix(), tol) {
		t.Error("RZ composition failed")
	}
	// RX(2π) = -I
	m = RX(2*math.Pi, 0).BaseMatrix()
	negI := NewMatrix(1)
	negI.Set(0, 0, -1)
	negI.Set(1, 1, -1)
	if !m.EqualTol(negI, tol) {
		t.Error("RX(2π) != -I")
	}
}

func TestU2EqualsU3Special(t *testing.T) {
	ph, la := 0.9, -0.4
	if !U2(ph, la, 0).BaseMatrix().EqualTol(U3(math.Pi/2, ph, la, 0).BaseMatrix(), tol) {
		t.Error("u2(φ,λ) != u3(π/2,φ,λ)")
	}
}

func TestSXSquaredIsX(t *testing.T) {
	m := SX(0).BaseMatrix()
	if !m.Mul(m).EqualTol(X(0).BaseMatrix(), tol) {
		t.Error("SX^2 != X")
	}
}

func TestGateAccessors(t *testing.T) {
	g := CCX(4, 7, 2)
	if g.Arity() != 3 || g.Ctrl != 2 {
		t.Fatalf("arity/ctrl wrong: %v", g)
	}
	if got := g.Controls(); len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Fatalf("controls = %v", got)
	}
	if got := g.Targets(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("targets = %v", got)
	}
	if got := g.SortedQubits(); got[0] != 2 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("sorted = %v", got)
	}
}

func TestRemap(t *testing.T) {
	g := CX(0, 1).Remap(func(q int) int { return q + 5 })
	if g.Qubits[0] != 5 || g.Qubits[1] != 6 {
		t.Fatalf("remap failed: %v", g.Qubits)
	}
	// original untouched
	if CX(0, 1).Qubits[0] != 0 {
		t.Fatal("remap mutated source")
	}
}

func TestGateString(t *testing.T) {
	if s := RZ(math.Pi/4, 2).String(); s != "rz(0.785398) q2" {
		t.Errorf("String() = %q", s)
	}
	if s := CX(0, 3).String(); s != "cx q0,q3" {
		t.Errorf("String() = %q", s)
	}
}

// --- decomposition equivalence ---

func seqUnitary(n int, gs []Gate) Matrix {
	m := NewMatrix(n)
	for c := 0; c < m.Dim(); c++ {
		col := applySeq(n, basisState(n, c), gs)
		for r := 0; r < m.Dim(); r++ {
			m.Set(r, c, col[r])
		}
	}
	return m
}

func TestDecomposeEquivalence(t *testing.T) {
	th, la := 0.63, -1.17
	cases := []struct {
		g Gate
		n int
	}{
		{CY(0, 1), 2},
		{CZ(0, 1), 2},
		{CH(0, 1), 2},
		{CP(la, 0, 1), 2},
		{CRX(th, 0, 1), 2},
		{CRY(th, 0, 1), 2},
		{CRZ(th, 0, 1), 2},
		{CU3(th, 0.4, la, 0, 1), 2},
		{SWAP(0, 1), 2},
		{RZZ(th, 0, 1), 2},
		{CCX(0, 1, 2), 3},
		{CSWAP(0, 1, 2), 3},
		{MCX([]int{0, 1}, 2), 3},
		{MCX([]int{0, 1, 2}, 3), 4},
		{MCZ([]int{0, 1, 2}, 3), 4},
		{MCP(la, []int{0, 1}, 2), 3},
		{MCP(la, []int{0, 1, 2}, 3), 4},
	}
	for _, tc := range cases {
		dec := Decompose(tc.g)
		for _, d := range dec {
			if d.Arity() > 2 {
				t.Errorf("%s: decomposition contains %d-qubit gate %s", tc.g.Name, d.Arity(), d.Name)
			}
			if d.Arity() == 2 && d.Name != "cx" {
				t.Errorf("%s: decomposition contains non-cx 2q gate %s", tc.g.Name, d.Name)
			}
		}
		got := seqUnitary(tc.n, dec)
		want := seqUnitary(tc.n, []Gate{tc.g})
		if !got.EqualTol(want, 1e-8) {
			t.Errorf("%s: decomposition does not match native unitary", tc.g.Name)
		}
	}
}

func TestDecomposePassThrough(t *testing.T) {
	g := H(3)
	d := Decompose(g)
	if len(d) != 1 || d[0].Name != "h" {
		t.Fatalf("H decompose = %v", d)
	}
	cx := CX(1, 2)
	d = Decompose(cx)
	if len(d) != 1 || d[0].Name != "cx" {
		t.Fatalf("CX decompose = %v", d)
	}
}

func TestDecomposeAll(t *testing.T) {
	gs := []Gate{H(0), CZ(0, 1), X(1)}
	d := DecomposeAll(gs)
	if len(d) != 1+3+1 {
		t.Fatalf("DecomposeAll length = %d", len(d))
	}
}

func TestMCXSingleControlIsCX(t *testing.T) {
	d := Decompose(MCX([]int{5}, 9))
	if len(d) != 1 || d[0].Name != "cx" || d[0].Qubits[0] != 5 || d[0].Qubits[1] != 9 {
		t.Fatalf("MCX with 1 control = %v", d)
	}
}
