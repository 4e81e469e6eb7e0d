package hisvsim

import (
	"math/cmplx"
	"testing"
	"testing/quick"

	"hisvsim/internal/circuit"
)

// equalAmps reports element-wise agreement of two states within eps.
func equalAmps(a, b *State, eps float64) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Amps {
		if cmplx.Abs(a.Amps[i]-b.Amps[i]) > eps {
			return false
		}
	}
	return true
}

// TestFusedMatchesUnfusedAllFamilies is the fusion acceptance matrix: for
// every circuit family at n=10, across partitioning strategies and
// working-set limits (one part, and parts of 8 qubits), the fused and
// unfused executions must agree amplitude-by-amplitude within 1e-9.
func TestFusedMatchesUnfusedAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		c := MustCircuit(fam, 10)
		for _, strategy := range []string{"nat", "dagp"} {
			for _, lm := range []int{0, 8} {
				base := Options{Strategy: strategy, Lm: lm, Seed: 1}
				off := base
				off.Fuse = FuseOff
				want, err := Simulate(c, off)
				if err != nil {
					t.Fatalf("%s/%s/lm=%d unfused: %v", fam, strategy, lm, err)
				}
				on := base
				on.Fuse = FuseOn
				got, err := Simulate(c, on)
				if err != nil {
					t.Fatalf("%s/%s/lm=%d fused: %v", fam, strategy, lm, err)
				}
				if !equalAmps(got.State, want.State, 1e-9) {
					t.Errorf("%s/%s/lm=%d: fused state diverges from unfused", fam, strategy, lm)
				}
				// Both must also match the flat reference simulator.
				flat, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if !equalAmps(got.State, flat, 1e-9) {
					t.Errorf("%s/%s/lm=%d: fused state diverges from flat reference", fam, strategy, lm)
				}
			}
		}
	}
}

// TestFusedMatchesUnfusedMaxFuseQubits sweeps the support cap.
func TestFusedMatchesUnfusedMaxFuseQubits(t *testing.T) {
	c := MustCircuit("qft", 10)
	flat, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 4, 5, 7} {
		res, err := Simulate(c, Options{Strategy: "dagp", MaxFuseQubits: k})
		if err != nil {
			t.Fatalf("MaxFuseQubits=%d: %v", k, err)
		}
		if !equalAmps(res.State, flat, 1e-9) {
			t.Errorf("MaxFuseQubits=%d: fused state diverges", k)
		}
	}
}

// TestQuickFusedEqualsUnfused is the randomized-circuit differential fuzz:
// seeded random circuits must execute identically fused and unfused under
// the hierarchical executor at working-set limits of 6, 7 and 8 qubits.
func TestQuickFusedEqualsUnfused(t *testing.T) {
	f := func(seed int64, lmRaw uint8) bool {
		c := circuit.Random(8, 60, seed)
		lm := 8 - int(lmRaw%3)
		off := Options{Strategy: "dagp", Lm: lm, Seed: seed, Fuse: FuseOff}
		want, err := Simulate(c, off)
		if err != nil {
			return false
		}
		on := off
		on.Fuse = FuseOn
		got, err := Simulate(c, on)
		if err != nil {
			return false
		}
		return equalAmps(got.State, want.State, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
