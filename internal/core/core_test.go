package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/mpi"
	"hisvsim/internal/perfmodel"
	"hisvsim/internal/sv"
)

func TestNewStrategyNames(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("strategy %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewStrategy("bogus", 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSimulateSingleNodeDefaults(t *testing.T) {
	c := circuit.QFT(8)
	want, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hier == nil || res.Dist != nil {
		t.Fatal("expected single-node metrics")
	}
	if f := res.State.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Fatalf("fidelity = %v", f)
	}
	// Default Lm = full register: one part.
	if res.Plan.NumParts() != 1 {
		t.Fatalf("parts = %d", res.Plan.NumParts())
	}
}

func TestSimulateWithLmAndStrategies(t *testing.T) {
	c := circuit.BV(8, -1)
	want, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"nat", "dfs", "dagp"} {
		res, err := Simulate(c, Options{Strategy: s, Lm: 4, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if f := res.State.Fidelity(want); math.Abs(f-1) > 1e-8 {
			t.Fatalf("%s: fidelity = %v", s, f)
		}
		if res.Plan.NumParts() < 2 {
			t.Fatalf("%s: expected multiple parts", s)
		}
	}
}

func TestSimulateDistributed(t *testing.T) {
	c := circuit.QFT(8)
	want, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, Options{Strategy: "dagp", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist == nil || res.Hier != nil {
		t.Fatal("expected distributed metrics")
	}
	if f := res.State.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Fatalf("fidelity = %v", f)
	}
}

func TestSimulateDistributedSkipState(t *testing.T) {
	res, err := Simulate(circuit.QFT(8), Options{Ranks: 2, SkipState: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != nil {
		t.Fatal("state gathered despite SkipState")
	}
}

func TestSimulateRejectsInvalid(t *testing.T) {
	bad := circuit.New("bad", 2)
	bad.Append(circuit.QFT(4).Gates...) // out-of-range gates
	if _, err := Simulate(bad, Options{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	if _, err := Simulate(circuit.QFT(6), Options{Strategy: "nope"}); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, circuit.QFT(8), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("single-node: err = %v, want context.Canceled", err)
	}
	if _, err := SimulateContext(ctx, circuit.QFT(8), Options{Ranks: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("distributed: err = %v, want context.Canceled", err)
	}
}

func TestSimulateContextDeadline(t *testing.T) {
	// An already-expired deadline must abort at (or before) the first part
	// boundary rather than running to completion.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := SimulateContext(ctx, circuit.QFT(10), Options{Strategy: "nat", Lm: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSimulateSeedDeterminism(t *testing.T) {
	// A fixed Seed pins the randomized partitioners, so the plan shape and
	// the final state are reproducible run to run.
	c := circuit.Random(8, 60, 2)
	a, err := Simulate(c, Options{Strategy: "dfs", Lm: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, Options{Strategy: "dfs", Lm: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.NumParts() != b.Plan.NumParts() {
		t.Fatalf("seeded runs produced %d vs %d parts", a.Plan.NumParts(), b.Plan.NumParts())
	}
	for i, amp := range a.State.Amps {
		if amp != b.State.Amps[i] {
			t.Fatalf("seeded runs diverged at amplitude %d", i)
		}
	}
}

func TestEstimatesImprovementShape(t *testing.T) {
	// The paper's headline (Fig. 5): dagP end-to-end beats IQS. Check the
	// modeled estimate reproduces that on communication-heavy circuits.
	net := mpi.HDR100()
	cpu := perfmodel.Xeon8280()
	for _, fam := range []string{"qft", "ising", "bv"} {
		c, err := circuit.Named(fam, 10)
		if err != nil {
			t.Fatal(err)
		}
		hi, pl, err := EstimateHiSVSIM(c, "dagp", 4, 1, net, cpu)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		iqs, err := EstimateIQS(c, 4, net, cpu)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if pl.NumParts() < 1 {
			t.Fatalf("%s: empty plan", fam)
		}
		if hi.BytesComm >= iqs.BytesComm && iqs.BytesComm > 0 {
			t.Errorf("%s: HiSVSIM bytes %d >= IQS bytes %d", fam, hi.BytesComm, iqs.BytesComm)
		}
		if hi.Total() <= 0 || iqs.Total() <= 0 {
			t.Errorf("%s: non-positive totals", fam)
		}
		if hi.CommRatio() < 0 || hi.CommRatio() > 1 {
			t.Errorf("%s: comm ratio %v out of range", fam, hi.CommRatio())
		}
	}
}
