package fuse

import (
	"testing"

	"hisvsim/internal/gate"
)

// fuzzQubits is the widest register the fuzzer builds: wider than the dense
// cap, so windows both fit and overflow it.
const fuzzQubits = 6

// fuzzGates decodes bytes into a gate list over the alphabet the structural
// diagonal rule has to tell apart: every monomial gate (the diagonal ones
// and the permutations) plus the rotations that must keep a window open,
// some at angle zero, where they are numerically — but not structurally —
// the identity. Three bytes make a gate: kind, qubit seed, angle.
func fuzzGates(data []byte) []gate.Gate {
	var gs []gate.Gate
	for ; len(data) >= 3; data = data[3:] {
		kind, qseed, theta := data[0]%20, int(data[1]), float64(data[2]%8)*0.37
		a := qseed % fuzzQubits
		b := (a + 1 + qseed/fuzzQubits%(fuzzQubits-1)) % fuzzQubits
		c := 0
		for c == a || c == b {
			c++
		}
		switch kind {
		case 0:
			gs = append(gs, gate.X(a))
		case 1:
			gs = append(gs, gate.Y(a))
		case 2:
			gs = append(gs, gate.Z(a))
		case 3:
			gs = append(gs, gate.T(a))
		case 4:
			gs = append(gs, gate.RZ(theta, a))
		case 5:
			gs = append(gs, gate.P(theta, a))
		case 6:
			gs = append(gs, gate.CX(a, b))
		case 7:
			gs = append(gs, gate.CY(a, b))
		case 8:
			gs = append(gs, gate.CZ(a, b))
		case 9:
			gs = append(gs, gate.CP(theta, a, b))
		case 10:
			gs = append(gs, gate.RZZ(theta, a, b))
		case 11:
			gs = append(gs, gate.SWAP(a, b))
		case 12:
			gs = append(gs, gate.CCX(a, b, c))
		case 13:
			gs = append(gs, gate.CSWAP(a, b, c))
		case 14:
			gs = append(gs, gate.MCZ([]int{a, b}, c))
		case 15:
			gs = append(gs, gate.RX(theta, a))
		case 16:
			gs = append(gs, gate.RY(theta, a))
		case 17:
			gs = append(gs, gate.H(a))
		case 18:
			gs = append(gs, gate.U3(theta, 0, 0, a))
		default:
			gs = append(gs, gate.CRX(theta, a, b))
		}
	}
	return gs
}

// FuzzFuseEquivalence: whatever the gate list, the fused blocks act on a
// random state exactly as the gates applied one by one do, and a block
// classified Diagonal holds monomial gates only.
func FuzzFuseEquivalence(f *testing.F) {
	f.Add([]byte{6, 0, 1, 4, 1, 3, 6, 0, 1})                             // cx·rz·cx
	f.Add([]byte{6, 0, 1, 15, 1, 0, 6, 0, 1})                            // cx·rx(0)·cx: numerically diagonal, structurally not
	f.Add([]byte{6, 0, 0, 6, 1, 0, 4, 2, 5, 6, 1, 0, 6, 0, 0})           // three-qubit parity gadget
	f.Add([]byte{12, 0, 0, 5, 2, 3, 12, 0, 0, 13, 7, 0, 3, 1, 0, 17, 2}) // ccx window, then an open cswap
	f.Add([]byte{11, 0, 0, 11, 6, 0, 1, 3, 0, 2, 3, 0, 1, 3, 0})         // swaps that do not close, y·z·y
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			return
		}
		gates := fuzzGates(data)
		want := randomState(fuzzQubits, 1)
		got := want.Clone()
		if err := want.ApplyGates(gates); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {MaxQubits: 3}} {
			blocks, err := Fuse(gates, opts)
			if err != nil {
				t.Fatal(err)
			}
			if GateCount(blocks) != len(gates) {
				t.Fatalf("blocks cover %d gates of %d", GateCount(blocks), len(gates))
			}
			for _, b := range blocks {
				for _, g := range b.Gates {
					if b.Kind == Diagonal && !monomial(g) {
						t.Fatalf("Diagonal block holds the non-monomial gate %s: %v", g, b.Gates)
					}
				}
			}
			st := got.Clone()
			if err := Apply(st, blocks); err != nil {
				t.Fatal(err)
			}
			if d := maxErr(st, want); d > 1e-10 {
				t.Fatalf("fused state off the per-gate state by %g (opts %+v, gates %v)", d, opts, gates)
			}
		}
	})
}
