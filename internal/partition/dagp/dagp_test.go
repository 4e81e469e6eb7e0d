package dagp

import (
	"testing"
	"testing/quick"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/partition"
)

func plan(t *testing.T, c *circuit.Circuit, lm int, opts Options) *partition.Plan {
	t.Helper()
	pl, err := Partitioner{Opts: opts}.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		t.Fatalf("dagp(%s, Lm=%d): %v", c.Name, lm, err)
	}
	if err := partition.Validate(pl); err != nil {
		t.Fatalf("dagp(%s, Lm=%d): invalid plan: %v", c.Name, lm, err)
	}
	return pl
}

func TestDagPValidOnBenchmarks(t *testing.T) {
	cases := []struct {
		c  *circuit.Circuit
		lm int
	}{
		{circuit.CatState(10), 4},
		{circuit.BV(10, -1), 4},
		{circuit.QAOA(10, 2, 3), 5},
		{circuit.CC(10), 4},
		{circuit.Ising(10, 3), 5},
		{circuit.QFT(10), 5},
		{circuit.QNN(10, 2, 3), 5},
		{circuit.Grover(6, 2), 5},
		{circuit.QPE(8, 0.3, 16), 5},
		{circuit.Adder(4), 5},
	}
	for _, tc := range cases {
		pl := plan(t, tc.c, tc.lm, Options{})
		if pl.NumParts() < 1 {
			t.Errorf("%s: no parts", tc.c.Name)
		}
		if !partition.BuildPartGraph(pl).IsAcyclic() {
			t.Errorf("%s: cyclic part-graph", tc.c.Name)
		}
	}
}

func TestDagPSinglePartWhenFits(t *testing.T) {
	c := circuit.QFT(5)
	pl := plan(t, c, 5, Options{})
	if pl.NumParts() != 1 {
		t.Fatalf("parts = %d, want 1", pl.NumParts())
	}
}

func TestDagPRejectsTooWideGate(t *testing.T) {
	c := circuit.Grover(5, 1) // contains CCX
	if _, err := (Partitioner{}).Partition(dag.FromCircuit(c), 2); err == nil {
		t.Fatal("accepted Lm below max gate arity")
	}
}

func TestDagPCompetitiveWithNat(t *testing.T) {
	// dagP should be no worse than ~1.5x Nat on these structured inputs and
	// usually better; it must never produce an invalid plan.
	for _, tc := range []struct {
		c  *circuit.Circuit
		lm int
	}{
		{circuit.BV(12, -1), 5},
		{circuit.QFT(12), 6},
		{circuit.Ising(12, 3), 6},
		{circuit.QAOA(12, 2, 3), 6},
	} {
		g := dag.FromCircuit(tc.c)
		nat, err := (partition.Nat{}).Partition(g, tc.lm)
		if err != nil {
			t.Fatal(err)
		}
		dp := plan(t, tc.c, tc.lm, Options{})
		if dp.NumParts() > nat.NumParts() {
			t.Errorf("%s Lm=%d: dagp %d parts > nat %d parts",
				tc.c.Name, tc.lm, dp.NumParts(), nat.NumParts())
		}
	}
}

func TestDagPMergeNeverIncreasesParts(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.BV(10, -1), circuit.QFT(10), circuit.Random(10, 100, 5),
	} {
		noMerge := plan(t, c, 4, Options{DisableMerge: true})
		withMerge := plan(t, c, 4, Options{})
		if withMerge.NumParts() > noMerge.NumParts() {
			t.Errorf("%s: merge increased parts %d -> %d",
				c.Name, noMerge.NumParts(), withMerge.NumParts())
		}
	}
}

func TestDagPAblationsValid(t *testing.T) {
	c := circuit.QFT(10)
	for _, opts := range []Options{
		{DisableRefine: true},
		{DisableCoarsen: true},
		{DisableMerge: true},
		{DisableRefine: true, DisableCoarsen: true, DisableMerge: true},
		{Epsilon: 1.1},
		{Epsilon: 2.0},
		{RefinePasses: 1},
		{CoarsenMinNodes: 8},
	} {
		pl := plan(t, c, 5, opts)
		if pl.NumParts() < 1 {
			t.Errorf("opts %+v: empty plan", opts)
		}
	}
}

func TestDagPDeterministicWithSeed(t *testing.T) {
	c := circuit.Random(10, 120, 9)
	a := plan(t, c, 5, Options{Seed: 7})
	b := plan(t, c, 5, Options{Seed: 7})
	if a.NumParts() != b.NumParts() {
		t.Fatal("same seed, different part counts")
	}
	for i := range a.Parts {
		if len(a.Parts[i].GateIndices) != len(b.Parts[i].GateIndices) {
			t.Fatal("same seed, different parts")
		}
	}
}

func TestQuickDagPValid(t *testing.T) {
	f := func(seed int64, nRaw, lmRaw uint8) bool {
		n := int(nRaw%6) + 4
		lm := int(lmRaw%uint8(n-3)) + 3
		if lm > n {
			lm = n
		}
		c := circuit.Random(n, 60, seed)
		pl, err := Partitioner{Opts: Options{Seed: seed}}.Partition(dag.FromCircuit(c), lm)
		if err != nil {
			return false
		}
		return partition.Validate(pl) == nil && partition.BuildPartGraph(pl).IsAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWGraphStructure(t *testing.T) {
	c := circuit.New("t", 3)
	// gate chain: H0, CX(0,1), CX(1,2) — wgraph edges 0->1->2
	cBell := circuit.CatState(3)
	_ = c
	wg := buildWGraph(cBell)
	if wg.n != cBell.NumGates() {
		t.Fatalf("wgraph nodes = %d", wg.n)
	}
	if wg.totalWset() != 3 {
		t.Fatalf("total wset = %d", wg.totalWset())
	}
	if wg.totalWeight() != cBell.NumGates() {
		t.Fatalf("total weight = %d", wg.totalWeight())
	}
	ord := wg.topoOrder()
	if len(ord) != wg.n {
		t.Fatal("topo order wrong length")
	}
}

func TestCoarsenPreservesContent(t *testing.T) {
	c := circuit.QFT(8)
	wg := buildWGraph(c)
	coarse, cmap := wg.coarsen(4)
	if coarse == nil {
		t.Skip("no contraction possible")
	}
	if coarse.n >= wg.n {
		t.Fatalf("coarsen did not shrink: %d -> %d", wg.n, coarse.n)
	}
	if coarse.totalWeight() != wg.totalWeight() {
		t.Fatal("coarsen lost weight")
	}
	if coarse.totalWset() != wg.totalWset() {
		t.Fatal("coarsen changed working set")
	}
	if len(coarse.allOrig()) != len(wg.allOrig()) {
		t.Fatal("coarsen lost gates")
	}
	// coarse graph must stay acyclic
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("coarse graph cyclic: %v", r)
		}
	}()
	coarse.topoOrder()
	for v := 0; v < wg.n; v++ {
		if cmap[v] < 0 || cmap[v] >= coarse.n {
			t.Fatalf("bad coarse map for node %d", v)
		}
	}
}

func TestSplitPartitionsNodes(t *testing.T) {
	wg := buildWGraph(circuit.QFT(6))
	side := make([]int, wg.n)
	for v := wg.n / 2; v < wg.n; v++ {
		side[v] = 1
	}
	a, b := wg.split(side)
	if a.n+b.n != wg.n {
		t.Fatalf("split sizes %d + %d != %d", a.n, b.n, wg.n)
	}
	if a.totalWeight()+b.totalWeight() != wg.totalWeight() {
		t.Fatal("split lost weight")
	}
}

// TestPartitionAllocationCeiling pins the partitioner's allocation count on
// the cold-hier benchmark circuit: flat backing arrays and bitsets keep one
// call in the thousands (407 252 before they replaced the per-call maps).
func TestPartitionAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	g := dag.FromCircuit(circuit.QFT(21))
	got := testing.AllocsPerRun(3, func() {
		if _, err := (Partitioner{}).Partition(g, 16); err != nil {
			t.Fatal(err)
		}
	})
	if got > 20000 {
		t.Errorf("%v allocations per Partition(qft-21, Lm=16), ceiling 20000", got)
	}
}

// The restarts after the first run concurrently; the plan must not depend
// on how they interleave.
func TestDagPConcurrentRestartsDeterministic(t *testing.T) {
	c := circuit.QFT(14)
	want := planHash(plan(t, c, 6, Options{Seed: 3}))
	for i := 0; i < 8; i++ {
		if got := planHash(plan(t, c, 6, Options{Seed: 3})); got != want {
			t.Fatalf("run %d: plan hash %s, first run %s", i, got, want)
		}
	}
}
