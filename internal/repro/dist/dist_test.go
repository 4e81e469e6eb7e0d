package dist

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

func distVsFlat(t *testing.T, c *circuit.Circuit, ranks int, cfg Config) *Result {
	t.Helper()
	want, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ranks = ranks
	res, pl, err := RunCircuit(c, dagp.Partitioner{}, cfg)
	if err != nil {
		t.Fatalf("%s/ranks=%d: %v", c.Name, ranks, err)
	}
	if pl == nil || pl.NumParts() < 1 {
		t.Fatalf("%s/ranks=%d: bad plan", c.Name, ranks)
	}
	if !res.State.EqualTol(want, 1e-9) {
		t.Fatalf("%s/ranks=%d: distributed state diverges from flat (fidelity %v)",
			c.Name, ranks, res.State.Fidelity(want))
	}
	return res
}

func TestDistMatchesFlat(t *testing.T) {
	circuits := []*circuit.Circuit{
		circuit.CatState(8),
		circuit.BV(8, -1),
		circuit.QFT(8),
		circuit.Ising(8, 2),
		circuit.QAOA(8, 2, 5),
		circuit.Grover(5, 1),
		circuit.Adder(3),
		circuit.QPE(7, 0.25, 16),
	}
	for _, c := range circuits {
		for _, ranks := range []int{1, 2, 4} {
			distVsFlat(t, c, ranks, Config{})
		}
	}
}

func TestDistVirtualRanksNonPowerOfTwo(t *testing.T) {
	res := distVsFlat(t, circuit.QFT(8), 3, Config{})
	if res.VirtualRanks != 4 {
		t.Fatalf("virtual ranks = %d, want 4", res.VirtualRanks)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats for %d ranks, want 4", len(res.Stats))
	}
}

func TestDistSingleRankNoComm(t *testing.T) {
	res := distVsFlat(t, circuit.QFT(8), 1, Config{})
	if res.BytesComm != 0 || res.Relayouts != 0 {
		t.Fatalf("single-rank run communicated: %d bytes, %d relayouts", res.BytesComm, res.Relayouts)
	}
}

func TestDistRelayoutsBoundedByParts(t *testing.T) {
	c := circuit.QFT(9)
	res := distVsFlat(t, c, 4, Config{})
	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), c.NumQubits-2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relayouts > pl.NumParts() {
		t.Fatalf("%d relayouts for %d parts", res.Relayouts, pl.NumParts())
	}
	if res.Relayouts == 0 {
		t.Fatal("qft over 4 ranks should need at least one relayout")
	}
}

func TestDistRejectsOversizedParts(t *testing.T) {
	c := circuit.QFT(8)
	// Partition with a limit wider than the local slab of a 4-rank run.
	pl, err := (partition.Nat{}).Partition(dag.FromCircuit(c), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pl, Config{Ranks: 4}); err == nil {
		t.Fatal("part wider than the local slab accepted")
	}
	if _, err := Run(pl, Config{Ranks: 0}); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestDistSkipStateLeavesStateNil(t *testing.T) {
	c := circuit.BV(8, -1)
	pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(pl, Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != nil {
		t.Fatal("state gathered without GatherResult")
	}
}

func TestQuickDistEqualsFlat(t *testing.T) {
	f := func(seed int64, rBits uint8) bool {
		ranks := 1 << (uint(rBits) % 3) // 1, 2 or 4
		c := circuit.Random(7, 30, seed)
		want, err := sv.Run(c)
		if err != nil {
			return false
		}
		res, _, err := RunCircuit(c, dagp.Partitioner{Opts: dagp.Options{Seed: seed}}, Config{Ranks: ranks})
		if err != nil {
			return false
		}
		return math.Abs(res.State.Fidelity(want)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRunContextCancelConsistentAcrossRanks(t *testing.T) {
	// Cancelling mid-run must abort every simulated rank at the SAME step
	// boundary: per-rank polling would leave a peer blocked inside a
	// collective until the 30s mpi recv timeout panics. A cancelled or
	// completed run are both acceptable outcomes; a timeout/panic is not.
	c := circuit.QFT(12)
	pl, err := (dagp.Partitioner{}).Partition(dag.FromCircuit(c), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			if delay > 0 {
				time.Sleep(delay)
			}
			cancel()
			close(done)
		}()
		_, err := Run(pl, Config{Ctx: ctx, Ranks: 4, GatherResult: true})
		<-done
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v, want nil or context.Canceled", delay, err)
		}
	}
}
