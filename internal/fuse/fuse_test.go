package fuse

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// randomState returns a normalized random state for differential tests.
func randomState(n int, seed int64) *sv.State {
	rng := rand.New(rand.NewSource(seed))
	st := sv.NewState(n)
	norm := 0.0
	for i := range st.Amps {
		st.Amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(st.Amps[i])*real(st.Amps[i]) + imag(st.Amps[i])*imag(st.Amps[i])
	}
	norm = math.Sqrt(norm)
	for i := range st.Amps {
		st.Amps[i] /= complex(norm, 0)
	}
	return st
}

// applyBoth runs the gate list unfused and as fused blocks on the same
// random input state and checks element-wise agreement.
func applyBoth(t *testing.T, n int, gates []gate.Gate, opts Options, seed int64) []Block {
	t.Helper()
	want := randomState(n, seed)
	got := want.Clone()
	if err := want.ApplyGates(gates); err != nil {
		t.Fatal(err)
	}
	blocks, err := Fuse(gates, opts)
	if err != nil {
		t.Fatal(err)
	}
	if GateCount(blocks) != len(gates) {
		t.Fatalf("blocks cover %d gates, want %d", GateCount(blocks), len(gates))
	}
	if err := Apply(got, blocks); err != nil {
		t.Fatal(err)
	}
	if !got.EqualTol(want, 1e-9) {
		t.Fatalf("fused state diverges from unfused (max err %v)", maxErr(got, want))
	}
	return blocks
}

func maxErr(a, b *sv.State) float64 {
	m := 0.0
	for i := range a.Amps {
		if d := cmplx.Abs(a.Amps[i] - b.Amps[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFuseMatchesUnfusedOnFamilies(t *testing.T) {
	for _, fam := range circuit.Families() {
		c, err := circuit.Named(fam, 8)
		if err != nil {
			t.Fatal(err)
		}
		blocks := applyBoth(t, c.NumQubits, c.Gates, Options{}, 7)
		if len(blocks) >= c.NumGates() && c.NumGates() > 20 {
			t.Errorf("%s: fusion produced %d blocks for %d gates (no coalescing)",
				fam, len(blocks), c.NumGates())
		}
	}
}

func TestFuseDiagonalRunsStayDiagonal(t *testing.T) {
	var gs []gate.Gate
	for i := 0; i < 8; i++ {
		gs = append(gs, gate.RZ(0.1*float64(i+1), i%4))
		if i%2 == 0 {
			gs = append(gs, gate.CP(0.3, i%4, (i+1)%4))
		}
	}
	blocks := applyBoth(t, 4, gs, Options{}, 3)
	if len(blocks) != 1 || blocks[0].Kind != Diagonal {
		t.Fatalf("pure-diagonal sequence fused into %d blocks (kind %v), want 1 Diagonal",
			len(blocks), blocks[0].Kind)
	}
}

// TestFuseRespectsSupportCap: on registers wider than both caps no dense
// block is wider than maxQubits, a diagonal chain splits into runs of
// exactly maxDiagQubits, and the fused state equals the unfused one.
func TestFuseRespectsSupportCap(t *testing.T) {
	n := maxDiagQubits + 2
	var chain []gate.Gate
	for q := 0; q+1 < n; q++ {
		chain = append(chain, gate.CP(0.3*float64(q+1), q, q+1))
	}
	widest := map[Kind]int{}
	for i, gs := range [][]gate.Gate{circuit.QFT(n).Gates, circuit.Random(n, 200, 3).Gates, chain} {
		for _, b := range applyBoth(t, n, gs, Options{}, int64(i)) {
			widest[b.Kind] = max(widest[b.Kind], len(b.Qubits))
		}
	}
	if widest[Dense] > maxQubits || widest[Diagonal] != maxDiagQubits {
		t.Fatalf("widest dense block %d qubits (cap %d), widest diagonal run %d (cap %d)",
			widest[Dense], maxQubits, widest[Diagonal], maxDiagQubits)
	}
}

func TestFuseOversizedGatePassesThrough(t *testing.T) {
	gs := []gate.Gate{
		gate.H(0),
		gate.MCX([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10), // arity 11 > both caps
		gate.H(10),
	}
	blocks, err := Fuse(gs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range blocks {
		if len(b.Gates) == 1 && b.Gates[0].Name == "mcx" {
			if b.Kind != Single {
				t.Fatalf("oversized gate got kind %v", b.Kind)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("oversized mcx not emitted as passthrough")
	}
	applyBoth(t, 11, gs, Options{}, 5)
}

func TestFuseSingleBlockPreservesGateOrderWithinSupport(t *testing.T) {
	// h then x on the same qubit do not commute: X·H ≠ H·X. The fused
	// matrix must equal the product in application order.
	gs := []gate.Gate{gate.H(0), gate.X(0), gate.RY(0.4, 1)}
	applyBoth(t, 2, gs, Options{}, 11)
}

func TestFuseDenseBlockUnitary(t *testing.T) {
	gs := []gate.Gate{gate.CX(0, 1), gate.H(0), gate.CX(0, 1), gate.H(1)}
	blocks := applyBoth(t, 2, gs, Options{}, 2)
	if len(blocks) != 1 {
		t.Fatalf("cx·h run on one pair fused into %d blocks, want 1", len(blocks))
	}
	b := blocks[0]
	if b.Kind != Dense {
		t.Fatalf("kind = %v, want Dense", b.Kind)
	}
	if !b.Matrix.IsUnitary(1e-12) {
		t.Fatal("fused matrix not unitary")
	}
}

// TestFusePhaseGadgetIsDiagonal: cx·rz·cx is a closed monomial window — its
// two permutations cancel — so it fuses to a diagonal, and neighbouring
// gadgets and diagonal gates join the same run.
func TestFusePhaseGadgetIsDiagonal(t *testing.T) {
	gadget := func(a, b int, theta float64) []gate.Gate {
		return []gate.Gate{gate.CX(a, b), gate.RZ(theta, b), gate.CX(a, b)}
	}
	blocks := applyBoth(t, 2, gadget(0, 1, 0.7), Options{}, 2)
	if len(blocks) != 1 || blocks[0].Kind != Diagonal {
		t.Fatalf("zz phase gadget fused into %d blocks (first kind %v), want 1 Diagonal", len(blocks), blocks[0].Kind)
	}
	want := gate.RZZ(0.7, 0, 1).BaseMatrix()
	for i, d := range blocks[0].Diag {
		if cmplx.Abs(d-want.At(i, i)) > 1e-15 {
			t.Fatalf("gadget diagonal %v, want rzz(0.7) %v", blocks[0].Diag, want)
		}
	}

	var gs []gate.Gate
	gs = append(gs, gate.T(2))
	gs = append(gs, gadget(0, 1, 0.3)...)
	gs = append(gs, gate.CP(0.4, 1, 3))
	gs = append(gs, gadget(3, 2, -1.1)...)
	// A three-qubit parity gadget, a y·z·y window and a ccx-conjugated phase.
	gs = append(gs, gate.CX(0, 1), gate.CX(1, 2), gate.RZ(0.9, 2), gate.CX(1, 2), gate.CX(0, 1))
	gs = append(gs, gate.Y(3), gate.Z(3), gate.Y(3))
	gs = append(gs, gate.CCX(0, 1, 2), gate.P(0.6, 2), gate.CCX(0, 1, 2))
	gs = append(gs, gate.SWAP(0, 3), gate.CSWAP(1, 0, 3), gate.S(0), gate.CSWAP(1, 0, 3), gate.SWAP(0, 3))
	blocks = applyBoth(t, 4, gs, Options{}, 9)
	if len(blocks) != 1 || blocks[0].Kind != Diagonal {
		t.Fatalf("diagonal gates and closed windows fused into %d blocks (first kind %v), want 1 Diagonal", len(blocks), blocks[0].Kind)
	}
}

// TestFuseOpenWindowStaysDense: a monomial run whose permutation does not
// return to the identity is not diagonal, however many phases it holds.
func TestFuseOpenWindowStaysDense(t *testing.T) {
	for name, gs := range map[string][]gate.Gate{
		"cx rz":       {gate.CX(0, 1), gate.RZ(0.7, 1)},
		"cx rz cx'":   {gate.CX(0, 1), gate.RZ(0.7, 1), gate.CX(1, 0)},
		"ccx cx ccx":  {gate.CCX(0, 1, 2), gate.CX(0, 1), gate.CCX(0, 1, 2)},
		"swap t swap": {gate.SWAP(0, 1), gate.T(0), gate.SWAP(1, 2)},
	} {
		for _, b := range applyBoth(t, 3, gs, Options{}, 4) {
			if b.Kind == Diagonal {
				t.Errorf("%s: open window classified Diagonal: %v", name, b.Gates)
			}
		}
	}
	// The window cap is the dense-block cap: a parity gadget wider than it
	// does not close into one diagonal, and the result is still exact.
	var wide []gate.Gate
	for q := 0; q < maxQubits; q++ {
		wide = append(wide, gate.CX(q, q+1))
	}
	wide = append(wide, gate.RZ(0.9, maxQubits))
	for q := maxQubits - 1; q >= 0; q-- {
		wide = append(wide, gate.CX(q, q+1))
	}
	for _, b := range applyBoth(t, maxQubits+1, wide, Options{}, 6) {
		if b.Kind != Single && len(b.Qubits) > maxQubits {
			t.Errorf("cap %d: block support %v", maxQubits, b.Qubits)
		}
	}
}

// TestStructuralDiagonalIgnoresAngles: classification reads gate names only.
// rx(0), ry(0) and u3(0,0,0) are numerically the identity — a test of the
// fused matrix would call a window around them diagonal — but they are never
// absorbed into a Diagonal block, and two bindings of one template get the
// same block boundaries.
func TestStructuralDiagonalIgnoresAngles(t *testing.T) {
	gs := []gate.Gate{
		gate.CX(0, 1), gate.RX(0, 1), gate.CX(0, 1),
		gate.RZ(0.4, 0), gate.RY(0, 0), gate.CZ(0, 1),
		gate.CX(1, 2), gate.U3(0, 0, 0, 2), gate.RZ(0.2, 2), gate.CX(1, 2),
		gate.CX(0, 2), gate.RZ(1.3, 2), gate.CX(0, 2),
	}
	blocks := applyBoth(t, 3, gs, Options{}, 8)
	diagonals := 0
	for _, b := range blocks {
		if b.Kind != Diagonal {
			continue
		}
		diagonals++
		for _, g := range b.Gates {
			if !monomial(g) {
				t.Errorf("Diagonal block holds the non-monomial gate %s", g)
			}
		}
	}
	if diagonals == 0 {
		t.Error("the closing cx·rz·cx gadget did not fuse to a Diagonal block")
	}

	c := circuit.QAOAAnsatz(6, 2)
	shape := func(env map[string]float64) (out []string) {
		bound, err := c.Bind(env)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := Fuse(bound.Gates, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			out = append(out, fmt.Sprint(b.Kind, b.Qubits, len(b.Gates)))
		}
		return out
	}
	zero := map[string]float64{"gamma0": 0, "beta0": 0, "gamma1": 0, "beta1": 0}
	generic := map[string]float64{"gamma0": 0.3, "beta0": 0.5, "gamma1": 0.7, "beta1": 0.2}
	if a, b := shape(zero), shape(generic); !slices.Equal(a, b) {
		t.Errorf("block boundaries depend on the binding:\n%v\n%v", a, b)
	}
}

// TestFuseStructuralBlockCounts pins what the monomial rule buys and what it
// must leave alone: the QAOA phase gadgets merge into a few wide diagonal
// sweeps (no 2-qubit dense block is left), and circuits without a closed
// monomial window fuse exactly as before.
func TestFuseStructuralBlockCounts(t *testing.T) {
	fused := func(c *circuit.Circuit) []Block {
		blocks, err := Fuse(c.Gates, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	for seed := int64(1); seed <= 3; seed++ {
		blocks := fused(circuit.QAOA(20, 2, seed))
		if len(blocks) > 70 {
			t.Errorf("qaoa-20 seed %d: %d blocks, want ≤ 70", seed, len(blocks))
		}
		for _, b := range blocks {
			if b.Kind == Dense && len(b.Qubits) == 2 {
				t.Errorf("qaoa-20 seed %d: a 2-qubit Dense block is left: %v", seed, b.Gates)
			}
		}
	}
	if n := len(fused(circuit.QAOAAnsatz(14, 2))); n > 48 {
		t.Errorf("qaoa_ansatz-14: %d blocks, want ≤ 48", n)
	}
	if n := len(fused(circuit.QFT(20))); n != 60 {
		t.Errorf("qft-20: %d blocks, want 60", n)
	}
	if n := len(fused(circuit.Ising(20, 4))); n != 112 {
		t.Errorf("ising-20: %d blocks, want 112", n)
	}
}

// TestFuseStructuralFamiliesExact holds fused ≡ per-gate to 1e-12 on the
// families the monomial rule touches: qaoa (gadgets that close), grover and
// adder (ccx-heavy runs whose windows mostly do not), and a template of the
// qaoa ansatz re-bound at random angles against the concrete circuit.
func TestFuseStructuralFamiliesExact(t *testing.T) {
	const tol = 1e-12
	for _, c := range []*circuit.Circuit{
		circuit.QAOA(9, 2, 3), circuit.MustNamed("grover", 9), circuit.MustNamed("adder", 10),
	} {
		want := randomState(c.NumQubits, 17)
		got := want.Clone()
		if err := want.ApplyGates(c.Gates); err != nil {
			t.Fatal(err)
		}
		blocks, err := Fuse(c.Gates, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Apply(got, blocks); err != nil {
			t.Fatal(err)
		}
		if d := maxErr(got, want); d > tol {
			t.Errorf("%s: fused state off the per-gate state by %g", c.Name, d)
		}
	}

	c := circuit.QAOAAnsatz(9, 2)
	tpl, err := CompileTemplate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		env := map[string]float64{}
		for _, s := range tpl.Symbols {
			env[s] = 4 * (rng.Float64() - 0.5)
		}
		bound, err := c.Bind(env)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sv.Run(bound)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tpl.Run(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxErr(got, want); d > tol {
			t.Errorf("binding %v: template off the concrete per-gate state by %g", env, d)
		}
	}
}

func TestFuseEmptyAndInvalid(t *testing.T) {
	blocks, err := Fuse(nil, Options{})
	if err != nil || len(blocks) != 0 {
		t.Fatalf("empty fuse: %v, %d blocks", err, len(blocks))
	}
	if _, err := Fuse([]gate.Gate{{Name: "nope", Qubits: []int{0}}}, Options{}); err == nil {
		t.Fatal("invalid gate accepted")
	}
}

func TestFuseReorderOffStillCorrect(t *testing.T) {
	c := circuit.QAOA(7, 2, 5)
	applyBoth(t, 7, c.Gates, Options{NoReorder: true}, 13)
}

func TestFuseReducesSweepsOnDeepCircuits(t *testing.T) {
	// The bound is 2/3 rather than 1/2: single-qubit field layers (e.g.
	// ising's RX sweeps) deliberately stay per-gate — their specialized
	// kernels beat a grown dense block — so the reduction comes from the
	// diagonal layers collapsing into runs.
	for _, fam := range []string{"qft", "ising", "qpe"} {
		c, err := circuit.Named(fam, 10)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := Fuse(c.Gates, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s := len(blocks); s*3 > c.NumGates()*2 { // one sweep per block
			t.Errorf("%s: %d sweeps for %d gates, want ≤ 2/3", fam, s, c.NumGates())
		}
	}
}

func TestQuickFuseEqualsUnfused(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := circuit.Random(6, 50, seed)
		applyBoth(t, 6, c.Gates, Options{}, seed+100)
		// Wider than the dense cap.
		applyBoth(t, 8, circuit.Random(8, 80, seed).Gates, Options{}, seed+200)
	}
}
