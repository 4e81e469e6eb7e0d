package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hisvsim/internal/circuit"
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
	res, err := SimulateContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hier == nil {
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
		res, err := SimulateContext(context.Background(), c, Options{Strategy: s, Lm: 4, Seed: 3})
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

func TestSimulateRejectsInvalid(t *testing.T) {
	bad := circuit.New("bad", 2)
	bad.Append(circuit.QFT(4).Gates...) // out-of-range gates
	if _, err := SimulateContext(context.Background(), bad, Options{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	if _, err := SimulateContext(context.Background(), circuit.QFT(6), Options{Strategy: "nope"}); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, circuit.QFT(8), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
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
	a, err := SimulateContext(context.Background(), c, Options{Strategy: "dfs", Lm: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateContext(context.Background(), c, Options{Strategy: "dfs", Lm: 4, Seed: 7})
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
