package exact

import (
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
)

func solve(t *testing.T, c *circuit.Circuit, lm int) *partition.Plan {
	t.Helper()
	pl, err := Solver{}.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		t.Fatalf("exact(%s, Lm=%d): %v", c.Name, lm, err)
	}
	if err := partition.Validate(pl); err != nil {
		t.Fatalf("exact(%s, Lm=%d): invalid plan: %v", c.Name, lm, err)
	}
	return pl
}

func TestExactSinglePart(t *testing.T) {
	c := circuit.QFT(4)
	pl := solve(t, c, 4)
	if pl.NumParts() != 1 {
		t.Fatalf("parts = %d, want 1", pl.NumParts())
	}
}

func TestExactKnownOptimum(t *testing.T) {
	// cat_state(6) with Lm=2: the CX chain q0-q1, q1-q2, ... can pack two
	// qubits per part; H+CX(0,1) fit together, then each CX needs a new part
	// (each introduces one new qubit but shares one with the previous), so
	// parts = 5: {H, CX01}, {CX12}, {CX23}, {CX34}, {CX45}? No — CX12 uses
	// q1,q2 (2 qubits) alone, so the greedy chain yields n-1 parts; optimum
	// equals that since every CX(i,i+1) pair overlaps its neighbors.
	c := circuit.CatState(6)
	pl := solve(t, c, 2)
	if pl.NumParts() != 5 {
		t.Fatalf("cat_state(6) Lm=2: parts = %d, want 5", pl.NumParts())
	}
}

func TestExactBeatsNatWhenOrderHurts(t *testing.T) {
	// Interleave two independent 2-qubit blocks: natural order alternates
	// between them, forcing Nat into many parts at Lm=2, while the optimum
	// is 2 (one part per block).
	c := circuit.New("interleave", 4)
	for i := 0; i < 4; i++ {
		c.Append(gate.CX(0, 1), gate.CX(2, 3))
	}
	g := dag.FromCircuit(c)
	nat, err := (partition.Nat{}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := solve(t, c, 2)
	if opt.NumParts() != 2 {
		t.Fatalf("optimum = %d, want 2", opt.NumParts())
	}
	if nat.NumParts() <= opt.NumParts() {
		t.Fatalf("expected nat (%d) worse than optimum (%d) on interleaved input",
			nat.NumParts(), opt.NumParts())
	}
}

func TestExactLowerBoundsHeuristics(t *testing.T) {
	// The paper reports dagP matches the ILP optimum in 48/52 cases and is
	// within 2 parts otherwise. Check optimality-gap bounds on a small grid.
	cases := []struct {
		c  *circuit.Circuit
		lm int
	}{
		{circuit.BV(7, -1), 3},
		{circuit.BV(7, -1), 4},
		{circuit.CatState(7), 3},
		{circuit.CC(7), 4},
		{circuit.QFT(6), 3},
		{circuit.QFT(6), 4},
		{circuit.Ising(6, 2), 3},
		{circuit.Random(6, 30, 11), 3},
	}
	matched := 0
	for _, tc := range cases {
		g := dag.FromCircuit(tc.c)
		opt := solve(t, tc.c, tc.lm)
		for _, s := range []partition.Strategy{
			partition.Nat{},
			partition.DFS{Seed: 3},
			dagp.Partitioner{},
		} {
			pl, err := s.Partition(g, tc.lm)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), tc.c.Name, err)
			}
			if pl.NumParts() < opt.NumParts() {
				t.Errorf("%s beat the optimum on %s Lm=%d: %d < %d — exact solver is wrong",
					s.Name(), tc.c.Name, tc.lm, pl.NumParts(), opt.NumParts())
			}
			if s.Name() == "dagp" {
				if pl.NumParts() == opt.NumParts() {
					matched++
				}
				if pl.NumParts() > opt.NumParts()+2 {
					t.Errorf("dagp on %s Lm=%d: %d parts vs optimal %d (gap > 2)",
						tc.c.Name, tc.lm, pl.NumParts(), opt.NumParts())
				}
			}
		}
	}
	if matched < len(cases)/2 {
		t.Errorf("dagp matched optimum only %d/%d times", matched, len(cases))
	}
}

func TestExactRejectsLargeInstances(t *testing.T) {
	c := circuit.BV(20, -1)
	if _, err := (Solver{}).Partition(dag.FromCircuit(c), 5); err == nil {
		t.Fatal("accepted 20-qubit instance")
	}
}

func TestExactRejectsTooWideGate(t *testing.T) {
	c := circuit.New("t", 4)
	c.Append(gate.CCX(0, 1, 2))
	if _, err := (Solver{}).Partition(dag.FromCircuit(c), 2); err == nil {
		t.Fatal("accepted infeasible Lm")
	}
}

func TestExactEmptyCircuit(t *testing.T) {
	c := circuit.New("empty", 3)
	pl := solve(t, c, 2)
	if pl.NumParts() != 0 {
		t.Fatalf("empty circuit parts = %d", pl.NumParts())
	}
}

func TestExactStateBudget(t *testing.T) {
	c := circuit.Random(8, 60, 2)
	if _, err := (Solver{Limit: 3}).Partition(dag.FromCircuit(c), 3); err == nil {
		t.Fatal("tiny budget not enforced")
	}
}
