package qasm

import (
	"strings"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

// fuzzSeeds are the fixtures of fixtures_test.go plus one source per corner
// the oracle below leans on: symbols in every affine spelling, rzz (the one
// parsed gate the writer lowers), nested and self-naming user gates, and an
// expression as deep as the parser allows.
var fuzzSeeds = []string{
	teleportQASM, vqeAnsatzQASM, qftLikeQASM,
	"OPENQASM 2.0;\nqreg q[2];\nh q[0];\nrz(2*gamma + pi/2) q[0];\nrx(-beta) q[1];\nrz(0-2*gamma) q[1];\ncrz(theta/4) q[0],q[1];\n",
	"OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a,b;\nrzz(0.3) a[0],b[1];\nu2(-0,1e-3) b[0];\nccx a[0],a[1],b[0];\n",
	"OPENQASM 2.0;\nqreg q[3];\ngate inner a,b { cx a,b; }\ngate outer a,b,c { inner a,b; inner b,c; }\nouter q[0],q[1],q[2];\n",
	"OPENQASM 2.0;\nqreg q[1];\ngate g0 a { }\ngate g1 a { g0 a; g0 a; }\ngate g2 a { g1 a; g1 a; }\ngate loop a { loop a; }\ng2 q[0];\nloop q[0];\n",
	"OPENQASM 2.0;\nqreg q[1];\nrz(ln(0)) q[0];\nrx(" + strings.Repeat("(", 120) + "1" + strings.Repeat(")", 120) + ") q[0];\n",
}

// FuzzParse: no source panics the parser or expands past MaxGates, and what
// parses survives the writer — Parse(Write(Parse(src))) has the fingerprint
// of Parse(src) once rzz, which the writer lowers to cx·rz·cx, is lowered on
// both sides.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		c := prog.Circuit
		if len(c.Gates) > MaxGates {
			t.Fatalf("%d gates from %d bytes of source", len(c.Gates), len(src))
		}
		want := circuit.New(c.Name, c.NumQubits)
		for _, g := range c.Gates {
			switch {
			case g.Name != "rzz":
				want.Append(g)
			case g.Parametric():
				return // the writer refuses a symbolic rzz with a comment
			default:
				want.Append(gate.Decompose(g)...)
			}
		}
		text := Write(c)
		back, err := ParseToCircuit(text)
		if err != nil {
			t.Fatalf("writer output does not parse: %v\n%s", err, text)
		}
		if back.Fingerprint() != want.Fingerprint() {
			t.Fatalf("fingerprint changed over the round trip:\n%s", text)
		}
	})
}
