package circuit

import (
	"testing"

	"hisvsim/internal/gate"
)

func TestNewAndAppend(t *testing.T) {
	c := New("t", 3)
	c.Append(gate.H(0), gate.CX(0, 1))
	if c.NumGates() != 2 {
		t.Fatalf("NumGates = %d", c.NumGates())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateOutOfRange(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.CX(0, 2))
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range gate validated")
	}
	bad := New("t", 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-qubit circuit validated")
	}
}

func TestClone(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.RX(0.5, 0))
	d := c.Clone()
	d.Gates[0].Qubits[0] = 1
	d.Gates[0].Params[0] = 9
	if c.Gates[0].Qubits[0] != 0 || c.Gates[0].Params[0] != 0.5 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestGateCountsAndMultiQubit(t *testing.T) {
	c := New("t", 3)
	c.Append(gate.H(0), gate.H(1), gate.CX(0, 1), gate.CCX(0, 1, 2))
	counts := c.GateCounts()
	if counts["h"] != 2 || counts["cx"] != 1 || counts["ccx"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if c.MultiQubitGates() != 2 {
		t.Fatalf("MultiQubitGates = %d", c.MultiQubitGates())
	}
}

func TestQubitsUsed(t *testing.T) {
	c := New("t", 5)
	c.Append(gate.H(4), gate.CX(1, 4))
	got := c.QubitsUsed()
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("QubitsUsed = %v", got)
	}
}

func TestDepth(t *testing.T) {
	c := New("t", 2)
	if c.Depth() != 0 {
		t.Fatalf("empty depth = %d", c.Depth())
	}
	c.Append(gate.H(0), gate.H(1)) // parallel layer
	if c.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", c.Depth())
	}
	c.Append(gate.CX(0, 1))
	if c.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", c.Depth())
	}
	c.Append(gate.H(0))
	if c.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", c.Depth())
	}
}

func TestMemoryBytes(t *testing.T) {
	c := New("t", 30)
	if c.MemoryBytes() != int64(16)<<30 {
		t.Fatalf("MemoryBytes = %d", c.MemoryBytes())
	}
}

func TestReversed(t *testing.T) {
	c := New("t", 2)
	c.Append(gate.H(0), gate.X(1), gate.CX(0, 1))
	r := c.Reversed()
	if r.Gates[0].Name != "cx" || r.Gates[2].Name != "h" {
		t.Fatalf("Reversed order wrong: %v", r.Gates)
	}
	if c.Gates[0].Name != "h" {
		t.Fatal("Reversed mutated original")
	}
}

func TestDecomposed(t *testing.T) {
	c := New("t", 3)
	c.Append(gate.CCX(0, 1, 2))
	d := c.Decomposed()
	if d.NumGates() <= 1 {
		t.Fatal("CCX did not decompose")
	}
	for _, g := range d.Gates {
		if g.Arity() > 2 {
			t.Fatalf("decomposed gate %s has arity %d", g.Name, g.Arity())
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsValidateAndSize(t *testing.T) {
	cases := []struct {
		c        *Circuit
		wantQ    int
		minGates int
	}{
		{CatState(8), 8, 8},
		{BV(8, -1), 8, 8 + 2},
		{QAOA(8, 2, 1), 8, 8 + 2*(8*3)},
		{CC(8), 8, 7*2 + 7},
		{Ising(8, 3), 8, 8 + 3*(7+8)},
		{QFT(8), 8, 8*9/2 + 4},
		{QNN(8, 2, 1), 8, 2*16 + 8},
		{Grover(5, 2), 5 + 3, 5},
		{QPE(6, 0.25, 8), 7, 6 + 6},
		{Adder(4), 10, 6*4 + 1},
		{Random(6, 40, 3), 6, 30},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err != nil {
			t.Errorf("%s: %v", tc.c.Name, err)
			continue
		}
		if tc.c.NumQubits != tc.wantQ {
			t.Errorf("%s: qubits = %d, want %d", tc.c.Name, tc.c.NumQubits, tc.wantQ)
		}
		if tc.c.NumGates() < tc.minGates {
			t.Errorf("%s: gates = %d, want ≥ %d", tc.c.Name, tc.c.NumGates(), tc.minGates)
		}
	}
}

func TestBVSecretEncoding(t *testing.T) {
	c := BV(6, 0b10101)
	cx := 0
	for _, g := range c.Gates {
		if g.Name == "cx" {
			cx++
		}
	}
	if cx != 3 {
		t.Fatalf("BV cx count = %d, want 3 (popcount of secret)", cx)
	}
}

func TestQFTGateCountExact(t *testing.T) {
	n := 7
	c := QFT(n)
	want := n + n*(n-1)/2 + n/2 // H's + CP ladder + swaps
	if c.NumGates() != want {
		t.Fatalf("QFT(%d) gates = %d, want %d", n, c.NumGates(), want)
	}
}

func TestGroverUsesBoundedArity(t *testing.T) {
	c := Grover(6, 1)
	for _, g := range c.Gates {
		if g.Arity() > 3 {
			t.Fatalf("grover gate %s arity %d", g.Name, g.Arity())
		}
	}
}

func TestGroverTinySizes(t *testing.T) {
	for d := 1; d <= 3; d++ {
		c := Grover(d, 1)
		if err := c.Validate(); err != nil {
			t.Errorf("Grover(%d,1): %v", d, err)
		}
	}
}

func TestQPEGateCapFoldsAngles(t *testing.T) {
	capped := QPE(10, 0.3, 4)
	uncapped := QPE(10, 0.3, 1<<10)
	if capped.NumGates() >= uncapped.NumGates() {
		t.Fatal("maxReps cap did not reduce gate count")
	}
	if err := capped.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarksSuite(t *testing.T) {
	specs := Benchmarks(12)
	if len(specs) != 13 {
		t.Fatalf("suite size = %d, want 13", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate spec name %s", s.Name)
		}
		seen[s.Name] = true
		c := s.Build()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if c.NumQubits != s.Qubits {
			t.Errorf("%s: built %d qubits, spec says %d", s.Name, c.NumQubits, s.Qubits)
		}
	}
}

func TestBenchmarksPanicsOnTinyScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Benchmarks(3)
}

func TestNamedFamilies(t *testing.T) {
	for _, f := range Families() {
		c, err := Named(f, 10)
		if err != nil {
			t.Errorf("Named(%s): %v", f, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Named(%s): %v", f, err)
		}
	}
	if _, err := Named("bogus", 10); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Named("adder", 3); err == nil {
		t.Error("tiny adder accepted")
	}
}

// Validate runs on every submit, cache hits included: on a valid circuit it
// allocates nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, family := range []string{"random", "qaoa", "qft", "ising"} {
		c := MustNamed(family, 16)
		if got := testing.AllocsPerRun(10, func() {
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s-16 (%d gates): %v allocations per Validate", family, c.NumGates(), got)
		}
	}
}
