package baseline

import (
	"math"
	"testing"
	"testing/quick"

	"hisvsim/internal/circuit"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/repro/dist"
	"hisvsim/internal/sv"
)

func baselineVsFlat(t *testing.T, c *circuit.Circuit, ranks int) *Result {
	t.Helper()
	want, err := sv.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{Ranks: ranks, GatherResult: true})
	if err != nil {
		t.Fatalf("%s/ranks=%d: %v", c.Name, ranks, err)
	}
	if f := res.State.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Fatalf("%s/ranks=%d: fidelity = %v", c.Name, ranks, f)
	}
	return res
}

func TestBaselineMatchesFlat(t *testing.T) {
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
			baselineVsFlat(t, c, ranks)
		}
	}
}

func TestBaselineEightRanks(t *testing.T) {
	baselineVsFlat(t, circuit.QFT(9), 8)
}

func TestBaselineCommGrowsWithGlobalGates(t *testing.T) {
	// cat_state's CX chain crosses the rank boundary once per global target;
	// QFT touches the top qubits with many gates, so it must exchange much
	// more than cat_state.
	cat := baselineVsFlat(t, circuit.CatState(8), 4)
	qft := baselineVsFlat(t, circuit.QFT(8), 4)
	if qft.BytesComm <= cat.BytesComm {
		t.Fatalf("QFT comm %d should exceed cat_state comm %d", qft.BytesComm, cat.BytesComm)
	}
}

func TestBaselineSingleRankNoComm(t *testing.T) {
	res := baselineVsFlat(t, circuit.QFT(7), 1)
	if res.BytesComm != 0 || res.Exchanges != 0 {
		t.Fatal("single-rank run communicated")
	}
}

func TestBaselineRejectsBadConfig(t *testing.T) {
	c := circuit.BV(6, -1)
	if _, err := Run(c, Config{Ranks: 3}); err == nil {
		t.Fatal("non-power-of-two ranks accepted")
	}
	if _, err := Run(c, Config{Ranks: 64}); err == nil {
		t.Fatal("too many ranks accepted")
	}
}

func TestBaselineKeepGatesLocalOnly(t *testing.T) {
	// With KeepGates, a swap on global qubits must be rejected...
	c := circuit.New("t", 6)
	c.Append(circuit.QFT(6).Gates...)
	if _, err := Run(c, Config{Ranks: 4, KeepGates: true}); err == nil {
		t.Fatal("multi-target global gate accepted with KeepGates")
	}
	// ...but a circuit whose multi-qubit gates stay local is fine.
	local := circuit.QFT(4)
	wide := circuit.New("wide", 6)
	wide.Append(local.Gates...)
	want, err := sv.Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(wide, Config{Ranks: 4, GatherResult: true, KeepGates: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.State.Fidelity(want); math.Abs(f-1) > 1e-8 {
		t.Fatalf("fidelity = %v", f)
	}
}

// HiSVSIM's headline claim: per-part relayout moves far fewer bytes than the
// baseline's per-gate exchanges on communication-heavy circuits.
func TestHiSVSIMBeatsBaselineOnCommVolume(t *testing.T) {
	for _, name := range []string{"qft", "ising", "bv"} {
		c, err := circuit.Named(name, 9)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(c, Config{Ranks: 4})
		if err != nil {
			t.Fatal(err)
		}
		hi, _, err := dist.RunCircuit(c, dagp.Partitioner{}, dist.Config{Ranks: 4})
		if err != nil {
			t.Fatal(err)
		}
		if base.BytesComm > 0 && hi.BytesComm >= base.BytesComm {
			t.Errorf("%s: HiSVSIM comm %d >= baseline comm %d", name, hi.BytesComm, base.BytesComm)
		}
	}
}

func TestQuickBaselineEqualsFlat(t *testing.T) {
	f := func(seed int64, rBits uint8) bool {
		ranks := 1 << (uint(rBits) % 3) // 1, 2 or 4
		c := circuit.Random(7, 30, seed)
		want, err := sv.Run(c)
		if err != nil {
			return false
		}
		res, err := Run(c, Config{Ranks: ranks, GatherResult: true})
		if err != nil {
			return false
		}
		return math.Abs(res.State.Fidelity(want)-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
