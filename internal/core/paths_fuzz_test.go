package core

import (
	"fmt"
	"math/cmplx"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/gate"
	"hisvsim/internal/hier"
	"hisvsim/internal/repro/dist"
	"hisvsim/internal/sv"
)

// pathsMaxQubits is the widest register FuzzPathsAgree builds.
const pathsMaxQubits = 8

// pathsTol is how far any execution path may land from the per-gate flat
// sweep: schedules differ, so amplitudes agree to rounding, not bit for bit.
const pathsTol = 1e-9

// pathsGate decodes one gate on an n-qubit register (n ≥ 2): single-qubit
// rotations and Cliffords, controlled and diagonal two-qubit gates, swap,
// and — on three or more qubits — the three-qubit ones.
func pathsGate(n int, kind byte, qseed int, theta float64) gate.Gate {
	a := qseed % n
	b := (a + 1 + qseed/n%(n-1)) % n
	c := 0
	for c == a || c == b {
		c++
	}
	if n < 3 && kind%16 >= 13 {
		kind = 0
	}
	switch kind % 16 {
	case 0:
		return gate.H(a)
	case 1:
		return gate.RX(theta, a)
	case 2:
		return gate.RZ(theta, a)
	case 3:
		return gate.Y(a)
	case 4:
		return gate.T(a)
	case 5:
		return gate.CX(a, b)
	case 6:
		return gate.CZ(a, b)
	case 7:
		return gate.CP(theta, a, b)
	case 8:
		return gate.CRX(theta, a, b)
	case 9:
		return gate.CH(a, b)
	case 10:
		return gate.SWAP(a, b)
	case 11:
		return gate.RZZ(theta, a, b)
	case 12:
		return gate.U3(theta, 0.3, 0.7, a)
	case 13:
		return gate.CCX(a, b, c)
	case 14:
		return gate.CSWAP(a, b, c)
	default:
		return gate.MCP(theta, []int{a, b}, c)
	}
}

// pathsWant applies the gates one by one from the state — the flat
// reference every path is held to.
func pathsWant(t *testing.T, start *sv.State, gates []gate.Gate) *sv.State {
	t.Helper()
	want := start.Clone()
	if err := want.ApplyGates(gates); err != nil {
		t.Fatal(err)
	}
	return want
}

func pathsCheck(t *testing.T, name string, got, want *sv.State) {
	t.Helper()
	for i := range want.Amps {
		if d := cmplx.Abs(got.Amps[i] - want.Amps[i]); !(d <= pathsTol) {
			t.Fatalf("%s: amplitude %d = %v, flat %v (|Δ| = %g)", name, i, got.Amps[i], want.Amps[i], d)
		}
	}
}

// FuzzPathsAgree: whatever the circuit and its start — |0…0⟩, an entangled
// prefix that leaves some qubits |0⟩, or a dense state — every execution path lands
// within pathsTol of the per-gate flat sweep: the flagless default (one
// part), the hier backend under nat, DFS and dagP at a random Lm with fusion
// on and off and one or two workers, the hier executor run on the prefix's
// state, and the modelled distributed executor (internal/repro/dist) at
// two ranks. The support-aware executor skips work by
// what the input state holds, so the start matters as much as the gates.
// Byte 0 picks the width (2–8), byte 1 the start, byte 2 Lm, byte 3 the
// prefix's qubits, and every 3 after that one gate (kind, qubit seed, angle).
func FuzzPathsAgree(f *testing.F) {
	f.Add([]byte{6, 0, 1, 0, 0, 0, 0, 5, 0, 0, 7, 1, 3, 13, 2, 0, 10, 3, 0}) // |0⟩: h·cx·cp·ccx·swap
	f.Add([]byte{7, 1, 2, 0x15, 5, 3, 0, 8, 9, 2, 14, 4, 0, 15, 8, 5, 2, 1, 3})
	f.Add([]byte{4, 2, 0, 0, 6, 0, 0, 9, 1, 1, 11, 2, 2, 10, 3, 0}) // dense start
	f.Add([]byte{8, 1, 3, 0x81, 13, 1, 0, 5, 6, 0, 7, 7, 4, 2, 0, 6})
	f.Add([]byte{4, 1, 5, 0x31, 4, 4, 3, 0, 4, 0, 12, 5, 2}) // GHZ on 0, 4, 5: amps[1<<q] all zero
	// ising-6 from |0⟩ (h layer, rzz chain, rx layer): the support-first
	// order interleaves the layers.
	f.Add([]byte{4, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 11, 0, 1, 11, 1, 1, 11, 2, 1, 11, 3, 1, 11, 4, 1, 1, 0, 2, 1, 1, 2, 1, 2, 2, 1, 3, 2, 1, 4, 2, 1, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4+3*64 {
			return
		}
		n := 2 + int(data[0])%(pathsMaxQubits-1)
		var prefix []gate.Gate
		switch data[1] % 3 {
		case 1: // a GHZ-like state over some qubits, the rest still |0⟩
			first := -1
			for q := 0; q < n; q++ {
				switch {
				case data[3]>>uint(q)&1 == 0:
				case first < 0:
					first = q
					prefix = append(prefix, gate.RY(0.4+0.3*float64(q), q))
				default:
					prefix = append(prefix, gate.CX(first, q))
				}
			}
		case 2: // dense
			for q := 0; q < n; q++ {
				prefix = append(prefix, gate.H(q), gate.RZ(0.2*float64(q+1), q))
			}
		}
		body := circuit.New("fuzz", n)
		for rest := data[4:]; len(rest) >= 3; rest = rest[3:] {
			body.Append(pathsGate(n, rest[0], int(rest[1]), float64(rest[2]%8)*0.41))
		}
		full := circuit.New("fuzz", n)
		full.Gates = append(append(full.Gates, prefix...), body.Gates...)
		arity := 1
		for _, g := range full.Gates {
			arity = max(arity, g.Arity())
		}
		lm := arity + int(data[2])%(n-arity+1)
		want := pathsWant(t, sv.NewState(n), full.Gates)

		run := func(name string, opts Options) {
			res, err := Simulate(full, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pathsCheck(t, name, res.State, want)
		}
		run("default", Options{})
		for _, s := range []string{"nat", "dfs", "dagp"} {
			for _, fuse := range []FusePolicy{FuseOn, FuseOff} {
				for workers := 1; workers <= 2; workers++ {
					run(fmt.Sprintf("hier/%s/lm%d/fuse%d/w%d", s, lm, fuse, workers),
						Options{Backend: "hier", Strategy: s, Lm: lm, Seed: 1, Fuse: fuse, Workers: workers})
				}
			}
		}
		strat, err := NewStrategy("dagp", 1)
		if err != nil {
			t.Fatal(err)
		}
		if arity <= n-1 {
			res, _, err := dist.RunCircuit(full, strat, dist.Config{Ranks: 2})
			if err != nil {
				t.Fatalf("dist/2: %v", err)
			}
			pathsCheck(t, "dist/2", res.State, want)
		}

		// The executor on the prefix's state: its support is read off the
		// amplitudes, not assumed to be |0…0⟩.
		if len(body.Gates) == 0 {
			return
		}
		start := pathsWant(t, sv.NewState(n), prefix)
		pl, err := strat.Partition(dag.FromCircuit(body), lm)
		if err != nil {
			t.Fatal(err)
		}
		for _, fuse := range []bool{true, false} {
			got := start.Clone()
			if _, err := hier.ExecutePlan(pl, got, hier.Options{Fuse: fuse, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			pathsCheck(t, fmt.Sprintf("ExecutePlan on the prefix state, fuse=%v", fuse), got, pathsWant(t, start, body.Gates))
		}
	})
}
