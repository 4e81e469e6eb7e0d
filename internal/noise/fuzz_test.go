package noise

import (
	"fmt"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

// fuzzQubits is the widest register the fuzzer builds.
const fuzzQubits = 6

// fuzzGateKinds is the size of the gate alphabet fuzzGate decodes.
const fuzzGateKinds = 20

// fuzzGate decodes one gate of the fusion fuzzer's alphabet: every monomial
// gate (the diagonal ones and the permutations) plus rotations, some at
// angle zero, where they are numerically — but not structurally — the
// identity.
func fuzzGate(kind byte, qseed int, theta float64) gate.Gate {
	a := qseed % fuzzQubits
	b := (a + 1 + qseed/fuzzQubits%(fuzzQubits-1)) % fuzzQubits
	c := 0
	for c == a || c == b {
		c++
	}
	switch kind % fuzzGateKinds {
	case 0:
		return gate.X(a)
	case 1:
		return gate.Y(a)
	case 2:
		return gate.Z(a)
	case 3:
		return gate.T(a)
	case 4:
		return gate.RZ(theta, a)
	case 5:
		return gate.P(theta, a)
	case 6:
		return gate.CX(a, b)
	case 7:
		return gate.CY(a, b)
	case 8:
		return gate.CZ(a, b)
	case 9:
		return gate.CP(theta, a, b)
	case 10:
		return gate.RZZ(theta, a, b)
	case 11:
		return gate.SWAP(a, b)
	case 12:
		return gate.CCX(a, b, c)
	case 13:
		return gate.CSWAP(a, b, c)
	case 14:
		return gate.MCZ([]int{a, b}, c)
	case 15:
		return gate.RX(theta, a)
	case 16:
		return gate.RY(theta, a)
	case 17:
		return gate.H(a)
	case 18:
		return gate.U3(theta, 0, 0, a)
	default:
		return gate.CRX(theta, a, b)
	}
}

// fuzzRates are the channel probabilities / damping rates a rule draws from.
var fuzzRates = []float64{1e-3, 0.05, 0.3, 0.75}

// fuzzModel decodes rule triples — channel, rate, gate-class mask — into a
// noise model over all six channels. A set mask bit k names the classes of
// alphabet kinds k, k+8 and k+16 that fit the channel's arity; a mask that
// names none of those takes every class that fits.
func fuzzModel(rules []byte) *Model {
	m := NewModel()
	names := ChannelNames()
	for ; len(rules) >= 3; rules = rules[3:] {
		ch, err := NewChannel(names[int(rules[0])%len(names)], fuzzRates[rules[1]%4])
		if err != nil {
			panic(err)
		}
		var fit, picked []string
		for kind := byte(0); kind < fuzzGateKinds; kind++ {
			g := fuzzGate(kind, 0, 0)
			if ch.NumQubits() > 1 && len(g.Qubits) != ch.NumQubits() {
				continue
			}
			fit = append(fit, g.Name)
			if rules[2]>>(kind%8)&1 != 0 {
				picked = append(picked, g.Name)
			}
		}
		if len(picked) == 0 {
			picked = fit
		}
		m.AddRule(Rule{Channel: ch, Gates: picked})
	}
	return m
}

// FuzzTrajectoryAgrees: whatever the circuit, noise model and seed, a
// trajectory whose tail runs fused segments takes the stepwise replay's
// draws and insertions and lands within tailTol of its state. The first
// byte picks the rule count, the next 3 per rule decode the rules, the next
// two the seed, and every 3 after that one gate (kind, qubit seed, angle).
func FuzzTrajectoryAgrees(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 17, 0, 0, 17, 1, 0, 10, 0, 3, 10, 1, 3, 15, 0, 2})         // depolarizing after h·h·rzz·rzz·rx
	f.Add([]byte{1, 0, 1, 0x40, 3, 2, 0x80, 9, 0, 6, 0, 1, 4, 1, 3, 6, 0, 1, 15, 2, 1})       // depolarizing on cx, damping on rx
	f.Add([]byte{1, 5, 2, 0, 4, 1, 0, 4, 0, 6, 0, 0, 6, 1, 0, 4, 2, 5, 6, 1, 0, 6, 0, 0})     // depolarizing2 and phase damping on a parity gadget
	f.Add([]byte{0, 1, 3, 0, 7, 7, 12, 0, 0, 5, 2, 3, 12, 0, 0, 13, 7, 0, 3, 1, 0, 17, 2, 0}) // bit flip at 0.75
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 3*128 {
			return
		}
		nr := 1 + int(data[0])%3
		data = data[1:]
		if len(data) < 3*nr+2 {
			return
		}
		model := fuzzModel(data[:3*nr])
		seed := int64(data[3*nr]) | int64(data[3*nr+1])<<8
		c := circuit.New("fuzz", fuzzQubits)
		for data = data[3*nr+2:]; len(data) >= 3; data = data[3:] {
			c.Append(fuzzGate(data[0], int(data[1]), float64(data[2]%8)*0.37))
		}
		plan, err := Compile(c, model, CompileOptions{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 4; k++ {
			checkAgainstStepwise(t, fmt.Sprintf("seed %d", seed+k), plan, seed+k)
		}
	})
}
