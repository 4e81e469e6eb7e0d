package partition

import (
	"testing"
	"testing/quick"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/gate"
)

func mustPlan(t *testing.T, s Strategy, c *circuit.Circuit, lm int) *Plan {
	t.Helper()
	pl, err := s.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if err := Validate(pl); err != nil {
		t.Fatalf("%s: invalid plan: %v", s.Name(), err)
	}
	return pl
}

func TestWorkingSet(t *testing.T) {
	c := circuit.New("t", 5)
	c.Append(gate.H(0), gate.CX(0, 2), gate.CX(2, 4))
	ws := WorkingSet(c, []int{0, 1})
	if len(ws) != 2 || ws[0] != 0 || ws[1] != 2 {
		t.Fatalf("ws = %v", ws)
	}
	ws = WorkingSet(c, []int{0, 1, 2})
	if len(ws) != 3 {
		t.Fatalf("ws = %v", ws)
	}
	if len(WorkingSet(c, nil)) != 0 {
		t.Fatal("empty working set not empty")
	}
}

func TestSegmentBasic(t *testing.T) {
	// bv-like: alternating CX into an ancilla forces parts under small Lm.
	c := circuit.BV(6, -1)
	order := make([]int, c.NumGates())
	for i := range order {
		order[i] = i
	}
	parts, err := Segment(c, order, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		if p.WorkingSetSize() > 3 {
			t.Fatalf("part %d working set %d", p.Index, p.WorkingSetSize())
		}
		total += len(p.GateIndices)
	}
	if total != c.NumGates() {
		t.Fatalf("segment lost gates: %d vs %d", total, c.NumGates())
	}
}

func TestSegmentSingleGateTooWide(t *testing.T) {
	c := circuit.New("t", 4)
	c.Append(gate.CCX(0, 1, 2))
	if _, err := Segment(c, []int{0}, 2); err == nil {
		t.Fatal("3-qubit gate accepted with Lm=2")
	}
}

func TestSegmentWholeCircuitFits(t *testing.T) {
	c := circuit.QFT(4)
	order := make([]int, c.NumGates())
	for i := range order {
		order[i] = i
	}
	parts, err := Segment(c, order, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("got %d parts, want 1", len(parts))
	}
}

func TestNatPartition(t *testing.T) {
	for _, tc := range []struct {
		c  *circuit.Circuit
		lm int
	}{
		{circuit.BV(8, -1), 4},
		{circuit.QFT(8), 4},
		{circuit.Ising(8, 3), 4},
		{circuit.Grover(5, 2), 4},
		{circuit.Adder(4), 5},
		{circuit.Random(9, 80, 3), 5},
	} {
		pl := mustPlan(t, Nat{}, tc.c, tc.lm)
		if pl.Strategy != "nat" {
			t.Fatalf("strategy = %s", pl.Strategy)
		}
		if pl.NumParts() < 1 {
			t.Fatalf("%s: no parts", tc.c.Name)
		}
	}
}

func TestDFSPartitionAtLeastAsGoodAsWorstOrder(t *testing.T) {
	c := circuit.BV(10, -1)
	nat := mustPlan(t, Nat{}, c, 4)
	dfs := mustPlan(t, DFS{Seed: 1}, c, 4)
	// DFS samples many orders; on BV its best order should beat or match a
	// poor natural order.
	if dfs.NumParts() > nat.NumParts()+2 {
		t.Fatalf("dfs %d parts much worse than nat %d", dfs.NumParts(), nat.NumParts())
	}
}

func TestDFSDeterministicWithSeed(t *testing.T) {
	c := circuit.Random(8, 60, 7)
	a := mustPlan(t, DFS{Seed: 42}, c, 4)
	b := mustPlan(t, DFS{Seed: 42}, c, 4)
	if a.NumParts() != b.NumParts() {
		t.Fatal("same seed produced different plans")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	c := circuit.BV(6, -1)
	pl := mustPlan(t, Nat{}, c, 3)
	bad := *pl
	bad.Parts = append([]Part(nil), pl.Parts...)
	if len(bad.Parts) < 2 {
		t.Skip("need 2+ parts")
	}
	bad.Parts[1] = NewPart(c, 1, append(append([]int(nil), bad.Parts[1].GateIndices...), bad.Parts[0].GateIndices[0]))
	if err := Validate(&bad); err == nil {
		t.Fatal("overlapping parts validated")
	}
}

func TestValidateCatchesMissingGate(t *testing.T) {
	c := circuit.BV(6, -1)
	pl := mustPlan(t, Nat{}, c, 3)
	bad := *pl
	bad.Parts = append([]Part(nil), pl.Parts...)
	last := &bad.Parts[len(bad.Parts)-1]
	if len(last.GateIndices) < 2 {
		t.Skip("need bigger last part")
	}
	*last = NewPart(c, last.Index, last.GateIndices[:len(last.GateIndices)-1])
	if err := Validate(&bad); err == nil {
		t.Fatal("missing gate validated")
	}
}

func TestValidateCatchesBackwardsDependency(t *testing.T) {
	c := circuit.New("t", 2)
	c.Append(gate.H(0), gate.CX(0, 1), gate.H(1))
	// Put dependent gate 1 in part 0 and its dependency gate 0 in part 1.
	pl := &Plan{
		Circuit: c, Lm: 2, Strategy: "bad",
		Parts: []Part{
			NewPart(c, 0, []int{1, 2}),
			NewPart(c, 1, []int{0}),
		},
	}
	if err := Validate(pl); err == nil {
		t.Fatal("backwards dependency validated")
	}
}

func TestValidateCatchesOversizedPart(t *testing.T) {
	c := circuit.QFT(5)
	all := make([]int, c.NumGates())
	for i := range all {
		all[i] = i
	}
	pl := &Plan{Circuit: c, Lm: 3, Strategy: "bad", Parts: []Part{NewPart(c, 0, all)}}
	if err := Validate(pl); err == nil {
		t.Fatal("oversized part validated")
	}
}

func TestValidateCatchesWrongWorkingSet(t *testing.T) {
	c := circuit.BV(6, -1)
	pl := mustPlan(t, Nat{}, c, 3)
	bad := *pl
	bad.Parts = append([]Part(nil), pl.Parts...)
	bad.Parts[0].Qubits = append([]int(nil), bad.Parts[0].Qubits...)
	bad.Parts[0].Qubits[0] = 99
	if err := Validate(&bad); err == nil {
		t.Fatal("corrupted working set validated")
	}
}

// Property: for any random circuit and feasible Lm, Nat and DFS produce
// valid plans covering every gate.
func TestQuickOrderStrategiesValid(t *testing.T) {
	f := func(seed int64, lmRaw, nRaw uint8) bool {
		n := int(nRaw%6) + 4 // 4..9 qubits
		lm := int(lmRaw%uint8(n-2)) + 3
		if lm > n {
			lm = n
		}
		c := circuit.Random(n, 50, seed)
		g := dag.FromCircuit(c)
		for _, s := range []Strategy{Nat{}, DFS{Seed: seed}} {
			pl, err := s.Partition(g, lm)
			if err != nil {
				return false
			}
			if Validate(pl) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPlanString(t *testing.T) {
	pl := mustPlan(t, Nat{}, circuit.BV(6, -1), 3)
	if pl.String() == "" {
		t.Fatal("empty String()")
	}
}
