package hier

import (
	"math"
	"testing"
	"testing/quick"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

func flat(t *testing.T, c *circuit.Circuit) *sv.State {
	t.Helper()
	s, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The central correctness invariant of the paper: hierarchical part-based
// execution computes exactly the same state as flat simulation, for every
// strategy and limit.
func TestHierMatchesFlatAllStrategies(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.CatState(8),
		circuit.BV(8, -1),
		circuit.QAOA(8, 2, 5),
		circuit.CC(8),
		circuit.Ising(8, 2),
		circuit.QFT(8),
		circuit.QNN(8, 2, 5),
		circuit.Grover(5, 2),
		circuit.QPE(7, 0.3, 16),
		circuit.Adder(3),
	}
	strategies := []partition.Strategy{
		partition.Nat{},
		partition.DFS{Trials: 5, Seed: 2},
		dagp.Partitioner{},
	}
	for _, c := range circuits {
		want := flat(t, c)
		for _, s := range strategies {
			for _, lm := range []int{4, 5, c.NumQubits} {
				if lm < maxArity(c) {
					continue
				}
				got, m, err := Run(c, lm, s, Options{})
				if err != nil {
					t.Fatalf("%s/%s/Lm=%d: %v", c.Name, s.Name(), lm, err)
				}
				if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
					t.Errorf("%s/%s/Lm=%d: fidelity = %v", c.Name, s.Name(), lm, f)
				}
				if m.Parts < 1 {
					t.Errorf("%s/%s/Lm=%d: no parts", c.Name, s.Name(), lm)
				}
			}
		}
	}
}

func maxArity(c *circuit.Circuit) int {
	m := 0
	for _, g := range c.Gates {
		if g.Arity() > m {
			m = g.Arity()
		}
	}
	return m
}

func TestMultiLevelMatchesFlat(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		circuit.QFT(9),
		circuit.QAOA(9, 2, 5),
		circuit.Grover(5, 2),
	} {
		want := flat(t, c)
		got, m, err := Run(c, 6, dagp.Partitioner{}, Options{SecondLevelLm: 3})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
			t.Errorf("%s: multi-level fidelity = %v", c.Name, f)
		}
		anySub := false
		for _, ps := range m.PerPart {
			if ps.SubParts > 1 {
				anySub = true
			}
		}
		if !anySub {
			t.Errorf("%s: second level never split", c.Name)
		}
	}
}

func TestMultiLevelWithDagPSecondLevel(t *testing.T) {
	c := circuit.QFT(8)
	want := flat(t, c)
	got, _, err := Run(c, 6, dagp.Partitioner{}, Options{
		SecondLevelLm: 3, SecondLevel: dagp.Partitioner{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := got.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Errorf("fidelity = %v", f)
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := circuit.BV(8, -1)
	_, m, err := Run(c, 4, partition.Nat{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerPart) != m.Parts {
		t.Fatalf("per-part stats %d vs parts %d", len(m.PerPart), m.Parts)
	}
	var bytes int64
	gates := 0
	for _, ps := range m.PerPart {
		// sweeps = 2^(n - w)
		if want := int64(1) << uint(c.NumQubits-ps.Qubits); ps.Sweeps != want {
			t.Errorf("part %d sweeps = %d, want %d", ps.Index, ps.Sweeps, want)
		}
		if ps.BytesMoved != 2*16*int64(1)<<uint(c.NumQubits) {
			t.Errorf("part %d bytes = %d", ps.Index, ps.BytesMoved)
		}
		bytes += ps.BytesMoved
		gates += ps.Gates
	}
	if bytes != m.BytesMoved {
		t.Error("bytes totals disagree")
	}
	if gates != c.NumGates() {
		t.Errorf("parts cover %d gates, circuit has %d", gates, c.NumGates())
	}
	if m.InnerOps < int64(c.NumGates()) {
		t.Errorf("inner ops %d < gate count", m.InnerOps)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	outer := make([]complex128, 1<<6)
	for i := range outer {
		outer[i] = complex(float64(i), -float64(i))
	}
	orig := append([]complex128(nil), outer...)
	qubits := []int{1, 3, 4}
	inner := make([]complex128, 1<<3)
	// For every free assignment: gather then scatter must be the identity.
	for f := 0; f < 1<<3; f++ {
		base := f
		for _, q := range qubits {
			base = insertBit(base, q)
		}
		Gather(outer, qubits, base, inner)
		Scatter(outer, qubits, base, inner)
	}
	for i := range outer {
		if outer[i] != orig[i] {
			t.Fatalf("round trip changed amp %d", i)
		}
	}
}

func TestGatherCoversDisjointExhaustive(t *testing.T) {
	// The 2^(n-w) gathered blocks must tile the outer vector exactly once.
	n, qubits := 6, []int{0, 2, 5}
	seen := make([]int, 1<<uint(n))
	inner := make([]complex128, 1<<uint(len(qubits)))
	for f := 0; f < 1<<uint(n-len(qubits)); f++ {
		base := f
		for _, q := range qubits {
			base = insertBit(base, q)
		}
		for s := range inner {
			seen[base|spread(s, qubits)]++
		}
	}
	for i, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("outer index %d visited %d times", i, cnt)
		}
	}
}

func TestExecutePlanRejectsSmallState(t *testing.T) {
	c := circuit.BV(6, -1)
	pl, err := (partition.Nat{}).Partition(dag.FromCircuit(c), 3)
	if err != nil {
		t.Fatal(err)
	}
	st := sv.NewState(4)
	if _, err := ExecutePlan(pl, st, Options{}); err == nil {
		t.Fatal("undersized state accepted")
	}
}

func TestQuickHierEqualsFlat(t *testing.T) {
	f := func(seed int64, lmRaw uint8) bool {
		c := circuit.Random(7, 40, seed)
		lm := int(lmRaw%4) + 3
		want, err := sv.Run(c)
		if err != nil {
			return false
		}
		got, _, err := Run(c, lm, dagp.Partitioner{Opts: dagp.Options{Seed: seed}}, Options{})
		if err != nil {
			return false
		}
		return math.Abs(got.Fidelity(want)-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllocationsIndependentOfSweepCount pins that the gather/execute/
// scatter loop itself allocates nothing: every part is lowered to kernel ops
// once, so running the same plan on a wider outer state — 16× the sweeps per
// part — costs exactly the same allocations, fused or not.
func TestAllocationsIndependentOfSweepCount(t *testing.T) {
	c := circuit.QFT(12)
	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuse := range []bool{false, true} {
		allocs := func(n int) float64 {
			st := sv.NewState(n)
			return testing.AllocsPerRun(3, func() {
				if _, err := ExecutePlan(pl, st, Options{Fuse: fuse, Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if narrow, wide := allocs(12), allocs(16); wide != narrow {
			t.Errorf("fuse=%v: %v allocations at 2^6 sweeps per part, %v at 2^10", fuse, narrow, wide)
		}
	}
}
