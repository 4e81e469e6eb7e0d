package fuse

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// randomParametric is circuit.Random with the angle of each rotation at an
// even index an affine form of one of three symbols.
func randomParametric(n, gates int, seed int64) *circuit.Circuit {
	c := circuit.Random(n, gates, seed)
	for i, g := range c.Gates {
		if len(g.Params) == 1 && i%2 == 0 {
			c.Gates[i] = g.WithArgs(gate.Affine(float64(i%5)-1.5, []string{"a", "b", "c"}[i%3], g.Params[0]))
		}
	}
	return c
}

// TestLowerIsTheOneLowering: unfused, Lower makes one Single block per gate
// whose Gates alias the input and whose op is sv.GateOp's; fused, it is Fuse
// with the default Options followed by Plan.
func TestLowerIsTheOneLowering(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuit.QFT(7), circuit.Random(7, 60, 3), circuit.QAOAAnsatz(6, 2), randomParametric(7, 80, 11)} {
		blocks, ops, err := Lower(c.Gates, c.NumQubits, false)
		if err != nil || len(blocks) != len(c.Gates) || len(ops) != len(c.Gates) {
			t.Fatalf("%s: %d blocks, %d ops for %d gates (%v)", c.Name, len(blocks), len(ops), len(c.Gates), err)
		}
		for i, b := range blocks {
			want, err := sv.GateOp(c.NumQubits, c.Gates[i])
			if err != nil || b.Kind != Single || len(b.Gates) != 1 || &b.Gates[0] != &c.Gates[i] || !reflect.DeepEqual(ops[i], want) {
				t.Fatalf("%s: block %d is not a Single block aliasing gate %d with sv.GateOp's op (%v)", c.Name, i, i, err)
			}
		}
		blocks, ops, err = Lower(c.Gates, c.NumQubits, true)
		wantBlocks, _ := Fuse(c.Gates, Options{})
		wantOps, _ := Plan(wantBlocks, c.NumQubits)
		if err != nil || !reflect.DeepEqual(blocks, wantBlocks) || !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("%s: fused Lower differs from Fuse then Plan (%v)", c.Name, err)
		}
	}
}

// TestRebindEqualsLoweringTheBoundGates: a lowered template run re-bound to
// a binding replays == to the lowering of the bound gates, fused or not, and
// leaves the run as it was lowered; a run with no parametric block comes
// back as the same slices.
func TestRebindEqualsLoweringTheBoundGates(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuit.QAOAAnsatz(7, 2), randomParametric(7, 80, 11), circuit.QFT(6)} {
		n := c.NumQubits
		for _, fused := range []bool{false, true} {
			blocks, ops, err := Lower(c.Gates, n, fused)
			if err != nil {
				t.Fatal(err)
			}
			for k := range 3 {
				env := map[string]float64{}
				for i, s := range c.Symbols() {
					env[s] = float64(k+1) * (0.7 - 0.3*float64(i))
				}
				gotBlocks, gotOps, err := Rebind(blocks, ops, env)
				if err != nil {
					t.Fatal(err)
				}
				if !c.Parametric() && (&gotBlocks[0] != &blocks[0] || &gotOps[0] != &ops[0]) {
					t.Fatalf("%s fused=%v: a concrete run came back as new slices", c.Name, fused)
				}
				bound, err := c.Bind(env)
				if err != nil {
					t.Fatal(err)
				}
				_, wantOps, err := Lower(bound.Gates, n, fused)
				if err != nil {
					t.Fatal(err)
				}
				got, want := randomState(n, int64(k)), randomState(n, int64(k))
				got.ApplyOps(gotOps)
				want.ApplyOps(wantOps)
				if !slices.Equal(got.Amps, want.Amps) {
					t.Fatalf("%s fused=%v binding %v: re-bound replay differs from lowering the bound gates", c.Name, fused, env)
				}
			}
			if again, againOps, _ := Lower(c.Gates, n, fused); !reflect.DeepEqual(blocks, again) || !reflect.DeepEqual(ops, againOps) {
				t.Fatalf("%s fused=%v: Rebind wrote into the lowered run", c.Name, fused)
			}
		}
	}
}

// TestTemplateSpecializeRebuildsOnlyTouchedBlocks: Specialize returns
// Rebind's blocks but builds only the template's touched payloads, with no op
// re-bound. On the sweep ansatz (qaoa_ansatz-14, 2 layers) that is at most
// 631 allocations and 70 KiB a call; re-binding every op and scanning every
// block for symbols took 660 and 84 KiB.
func TestTemplateSpecializeRebuildsOnlyTouchedBlocks(t *testing.T) {
	tpl, err := CompileTemplate(circuit.QAOAAnsatz(14, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"gamma0": 0.3, "beta0": 0.5, "gamma1": 0.7, "beta1": 0.2}
	got, err := tpl.Specialize(env)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Rebind(tpl.Blocks, tpl.Ops, env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Specialize's blocks differ from Rebind's")
	}
	if raceEnabled {
		return // the race detector changes what allocates
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { _, err = tpl.Specialize(env) })
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024 // AllocsPerRun warms up once
	t.Logf("%.0f allocations, %.1f KiB a call", allocs, kb)
	if allocs > 631 || kb > 70 {
		t.Fatalf("Specialize: %.0f allocations and %.1f KiB a call, want ≤ 631 and ≤ 70 KiB", allocs, kb)
	}
}
