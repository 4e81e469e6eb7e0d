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
// every circuit family at n=10, across partitioning strategies and rank
// counts, the fused and unfused executions must agree amplitude-by-amplitude
// within 1e-9.
func TestFusedMatchesUnfusedAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		c := MustCircuit(fam, 10)
		for _, strategy := range []string{"nat", "dagp"} {
			for _, ranks := range []int{1, 4} {
				base := Options{Strategy: strategy, Ranks: ranks, Seed: 1}
				off := base
				off.Fuse = FuseOff
				want, err := Simulate(c, off)
				if err != nil {
					t.Fatalf("%s/%s/ranks=%d unfused: %v", fam, strategy, ranks, err)
				}
				on := base
				on.Fuse = FuseOn
				got, err := Simulate(c, on)
				if err != nil {
					t.Fatalf("%s/%s/ranks=%d fused: %v", fam, strategy, ranks, err)
				}
				if !equalAmps(got.State, want.State, 1e-9) {
					t.Errorf("%s/%s/ranks=%d: fused state diverges from unfused", fam, strategy, ranks)
				}
				// Both must also match the flat reference simulator.
				flat, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if !equalAmps(got.State, flat, 1e-9) {
					t.Errorf("%s/%s/ranks=%d: fused state diverges from flat reference", fam, strategy, ranks)
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
// seeded random circuits must execute identically fused and unfused across
// the single-node and distributed paths.
func TestQuickFusedEqualsUnfused(t *testing.T) {
	f := func(seed int64, rBits, lmRaw uint8) bool {
		ranks := 1 << (uint(rBits) % 3) // 1, 2 or 4
		c := circuit.Random(8, 60, seed)
		lm := 8 - int(lmRaw%3)
		off := Options{Strategy: "dagp", Ranks: ranks, Lm: lm, Seed: seed, Fuse: FuseOff}
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
