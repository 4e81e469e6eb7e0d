package partition

import (
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
)

func TestComputeMetrics(t *testing.T) {
	c := circuit.BV(8, -1)
	pl := mustPlan(t, Nat{}, c, 4)
	m := ComputeMetrics(pl)
	if m.Parts != pl.NumParts() {
		t.Fatalf("parts = %d", m.Parts)
	}
	if m.Gates != c.NumGates() {
		t.Fatalf("gates = %d, want %d", m.Gates, c.NumGates())
	}
	if m.MinGates <= 0 || m.MaxGates < m.MinGates {
		t.Fatalf("gate bounds [%d, %d]", m.MinGates, m.MaxGates)
	}
	if m.MaxWorkingSet > pl.Lm {
		t.Fatalf("max wset %d > Lm %d", m.MaxWorkingSet, pl.Lm)
	}
	if m.MeanGates <= 0 || m.MeanWorkingSet <= 0 {
		t.Fatal("means not positive")
	}
	// First part contributes its whole working set to churn.
	if m.QubitChurn < m.MinWorkingSet {
		t.Fatalf("churn %d below first part's wset", m.QubitChurn)
	}
	if pl.NumParts() > 1 && m.CutEdges == 0 {
		t.Fatal("multi-part plan with no cut edges")
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestComputeMetricsSinglePart(t *testing.T) {
	c := circuit.QFT(5)
	pl := mustPlan(t, Nat{}, c, 5)
	m := ComputeMetrics(pl)
	if m.Parts != 1 || m.CutEdges != 0 {
		t.Fatalf("single part metrics: %+v", m)
	}
	if m.QubitChurn != 5 {
		t.Fatalf("churn = %d, want 5", m.QubitChurn)
	}
}

func TestComputeMetricsEmptyPlan(t *testing.T) {
	c := circuit.New("empty", 3)
	pl := &Plan{Circuit: c, Lm: 3, Strategy: "nat"}
	m := ComputeMetrics(pl)
	if m.Parts != 0 || m.Gates != 0 || m.MinGates != 0 {
		t.Fatalf("empty metrics: %+v", m)
	}
}

func TestRelayoutBytes(t *testing.T) {
	c := circuit.BV(8, -1)
	pl := mustPlan(t, Nat{}, c, 4)
	if RelayoutBytes(pl, 1) != 0 {
		t.Fatal("single rank should not relayout")
	}
	b4 := RelayoutBytes(pl, 4)
	if b4 <= 0 {
		t.Fatal("no relayout bytes for multi-part plan")
	}
	// More ranks -> larger moved fraction.
	if RelayoutBytes(pl, 16) <= b4 {
		t.Fatal("relayout bytes should grow with rank count")
	}
}

// dagP should dominate Nat on the churn metric for circuits where the
// natural order thrashes qubits (the mechanism behind Fig. 7).
func TestChurnOrderingOnInterleaved(t *testing.T) {
	c := circuit.Random(10, 120, 3)
	g := dag.FromCircuit(c)
	nat, err := (Nat{}).Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := (DFS{Seed: 1}).Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	mn := ComputeMetrics(nat)
	md := ComputeMetrics(dfs)
	if md.Parts > mn.Parts {
		t.Skip("dfs found no better plan on this seed")
	}
	if md.QubitChurn > mn.QubitChurn+5 {
		t.Fatalf("dfs churn %d much worse than nat %d despite fewer parts",
			md.QubitChurn, mn.QubitChurn)
	}
}
