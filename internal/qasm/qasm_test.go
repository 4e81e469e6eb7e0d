package qasm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hisvsim/internal/circuit"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestParseMinimal(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
`)
	c := p.Circuit
	if c.NumQubits != 3 {
		t.Fatalf("qubits = %d", c.NumQubits)
	}
	if c.NumGates() != 2 || c.Gates[0].Name != "h" || c.Gates[1].Name != "cx" {
		t.Fatalf("gates = %v", c.Gates)
	}
	if p.CRegs["c"] != 3 {
		t.Fatalf("cregs = %v", p.CRegs)
	}
}

func TestParseParamsAndExpressions(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
qreg q[1];
rz(pi/2) q[0];
rx(-pi/4) q[0];
u3(2*pi, pi+1, pi^2) q[0];
ry(sin(pi/6)) q[0];
u1(3.5e-1) q[0];
`)
	gs := p.Circuit.Gates
	if math.Abs(gs[0].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("rz param = %v", gs[0].Params[0])
	}
	if math.Abs(gs[1].Params[0]+math.Pi/4) > 1e-12 {
		t.Errorf("rx param = %v", gs[1].Params[0])
	}
	if math.Abs(gs[2].Params[2]-math.Pi*math.Pi) > 1e-12 {
		t.Errorf("u3 λ = %v", gs[2].Params[2])
	}
	if math.Abs(gs[3].Params[0]-0.5) > 1e-12 {
		t.Errorf("sin(pi/6) = %v", gs[3].Params[0])
	}
	if math.Abs(gs[4].Params[0]-0.35) > 1e-12 {
		t.Errorf("3.5e-1 = %v", gs[4].Params[0])
	}
}

func TestParseBroadcast(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
qreg q[4];
h q;
`)
	if p.Circuit.NumGates() != 4 {
		t.Fatalf("broadcast produced %d gates", p.Circuit.NumGates())
	}
}

func TestParseBroadcastTwoRegisters(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
qreg a[3];
qreg b[3];
cx a,b;
`)
	if p.Circuit.NumGates() != 3 {
		t.Fatalf("cx broadcast = %d gates", p.Circuit.NumGates())
	}
	g := p.Circuit.Gates[1]
	if g.Qubits[0] != 1 || g.Qubits[1] != 4 {
		t.Fatalf("second cx = %v", g.Qubits)
	}
}

func TestParseBroadcastSizeMismatch(t *testing.T) {
	_, err := Parse(`
OPENQASM 2.0;
qreg a[2];
qreg b[3];
cx a,b;
`)
	if err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestParseUserGate(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
qreg q[2];
gate majority(theta) a,b {
  cx a,b;
  rz(theta/2) b;
  cx a,b;
}
majority(pi) q[0],q[1];
`)
	gs := p.Circuit.Gates
	if len(gs) != 3 || gs[0].Name != "cx" || gs[1].Name != "rz" || gs[2].Name != "cx" {
		t.Fatalf("expanded = %v", gs)
	}
	if math.Abs(gs[1].Params[0]-math.Pi/2) > 1e-12 {
		t.Fatalf("substituted param = %v", gs[1].Params[0])
	}
}

func TestParseNestedUserGates(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
qreg q[3];
gate inner a,b { cx a,b; }
gate outer a,b,c { inner a,b; inner b,c; }
outer q[0],q[1],q[2];
`)
	if p.Circuit.NumGates() != 2 {
		t.Fatalf("nested expansion = %d gates", p.Circuit.NumGates())
	}
}

func TestParseMeasureAndBarrier(t *testing.T) {
	p := mustParse(t, `
OPENQASM 2.0;
qreg q[2];
creg c[2];
h q[0];
barrier q;
measure q[0] -> c[0];
measure q -> c;
`)
	if p.Barriers != 1 {
		t.Fatalf("barriers = %d", p.Barriers)
	}
	if len(p.Measures) != 2 {
		t.Fatalf("measures = %v", p.Measures)
	}
	if p.Measures[0].Qubit != 0 || p.Measures[1].Qubit != -1 {
		t.Fatalf("measures = %v", p.Measures)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`qreg q[2]; if (c==1) x q[0];`,
		`qreg q[2]; reset q[0];`,
		`qreg q[2]; x q[5];`,
		`qreg q[2]; bogus q[0];`,
		`qreg q[2]; cx q[0];`,
		`qreg q[2]; rz() q[0];`,
		`x q[0];`, // no qreg
		`qreg q[2]; qreg q[3];`,
		`qreg q[2000000000]; h q;`,              // over the parser's register limit
		`qreg a[40000]; qreg b[40000]; h a[0];`, // … also in total
		`qreg q[2]; rz(1/0) q[0];`,
		`qreg q[2]; rz(foo*bar) q[0];`,                 // nonlinear in symbols
		`qreg q[2]; rz(sin(foo)) q[0];`,                // symbol under a function
		`qreg q[2]; rz(1/foo) q[0];`,                   // symbol in a divisor
		`qreg q[2]; h(foo) q[0];`,                      // symbol on a non-parametric gate
		`qreg q[2]; gate g0 a { rz(foo) a; } g0 q[0];`, // free symbol in a gate body
		`qreg q[2]; gate bad a { cx a,b; } bad q[0];`,
	}
	for _, src := range cases {
		if _, err := Parse("OPENQASM 2.0;\n" + src); err == nil {
			t.Errorf("accepted invalid source %q", src)
		}
	}
}

// TestSymbolicRoundTrip: free identifiers in top-level angle expressions
// parse into affine gate.Params, survive Write/Parse, and bind to the same
// concrete circuit as evaluating the expression by hand.
func TestSymbolicRoundTrip(t *testing.T) {
	p := mustParse(t, `OPENQASM 2.0;
qreg q[2];
h q[0];
rz(2*gamma + pi/2) q[0];
rx(-beta) q[1];
crz(theta/4) q[0],q[1];
`)
	c := p.Circuit
	if !c.Parametric() {
		t.Fatal("parsed circuit is not parametric")
	}
	syms := c.Symbols()
	if len(syms) != 3 || syms[0] != "beta" || syms[1] != "gamma" || syms[2] != "theta" {
		t.Fatalf("symbols = %v", syms)
	}
	back, err := ParseToCircuit(Write(c))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, Write(c))
	}
	if back.Fingerprint() != c.Fingerprint() {
		t.Fatalf("fingerprint changed over round trip:\n%s", Write(c))
	}
	env := map[string]float64{"gamma": 0.3, "beta": 0.7, "theta": -1.1}
	bound, err := c.Bind(env)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2*0.3 + math.Pi/2, -0.7, -1.1 / 4}
	got := []float64{bound.Gates[1].Params[0], bound.Gates[2].Params[0], bound.Gates[3].Params[0]}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bound param %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParseComments(t *testing.T) {
	p := mustParse(t, `
// leading comment
OPENQASM 2.0;
qreg q[1]; // trailing
// h q[0]; (commented out)
x q[0];
`)
	if p.Circuit.NumGates() != 1 || p.Circuit.Gates[0].Name != "x" {
		t.Fatalf("gates = %v", p.Circuit.Gates)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := circuit.QFT(5)
	src := Write(orig)
	back, err := ParseToCircuit(src)
	if err != nil {
		t.Fatalf("reparse: %v\nsource:\n%s", err, src)
	}
	if back.NumQubits != orig.NumQubits {
		t.Fatalf("qubits: %d vs %d", back.NumQubits, orig.NumQubits)
	}
	// QFT uses h/cp/swap which all map 1:1 except p->u1 naming.
	if back.NumGates() != orig.NumGates() {
		t.Fatalf("gates: %d vs %d", back.NumGates(), orig.NumGates())
	}
}

func TestWriteLowersNonQelibGates(t *testing.T) {
	c := circuit.Ising(4, 1) // contains rzz
	src := Write(c)
	if strings.Contains(src, "rzz") {
		t.Fatal("writer emitted rzz")
	}
	if _, err := ParseToCircuit(src); err != nil {
		t.Fatalf("lowered source unparseable: %v", err)
	}
}

func TestWriteGrover(t *testing.T) {
	src := Write(circuit.Grover(4, 1))
	back, err := ParseToCircuit(src)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumQubits != 6 {
		t.Fatalf("qubits = %d", back.NumQubits)
	}
}

// tokenize scans the whole source.
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := tokenize(`x @;`); err == nil {
		t.Error("bad rune accepted")
	}
	if _, err := tokenize(`include "unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestLexerArrowAndNumbers(t *testing.T) {
	toks, err := tokenize(`measure q[0] -> c[0]; rz(1.5e-3)`)
	if err != nil {
		t.Fatal(err)
	}
	var arrow, num bool
	for _, tk := range toks {
		if tk.kind == tokSymbol && tk.text == "->" {
			arrow = true
		}
		if tk.kind == tokNumber && tk.text == "1.5e-3" {
			num = true
		}
	}
	if !arrow || !num {
		t.Fatalf("arrow=%v num=%v toks=%v", arrow, num, toks)
	}
}

// TestParseBounds: sources that cost a line to write and unbounded time,
// memory or stack to expand are errors that say so.
func TestParseBounds(t *testing.T) {
	doubling := "gate g0 a { }\n"
	for i := 1; i <= 40; i++ {
		doubling += fmt.Sprintf("gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	for want, stmts := range map[string]string{
		"gate applications": doubling + "g40 q[0];",
		"call itself":       "gate loop a { loop a; }\nloop q[0];",
		"nests deeper":      "rz(" + strings.Repeat("(", 4096) + "1" + strings.Repeat(")", 4096) + ") q[0];",
		"deeper than":       "rz(2" + strings.Repeat("^1", 4096) + ") q[0];",
		"not finite":        "rz(ln(0)) q[0];",
		"is not finite":     "rz(exp(1000)*theta) q[0];",
	} {
		_, err := Parse("OPENQASM 2.0;\nqreg q[1];\n" + stmts + "\n")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%.40q…: error %v, want one naming %q", stmts, err, want)
		}
	}
	// A run of signs is a loop, not a recursion: any length folds to one.
	p := mustParse(t, "OPENQASM 2.0;\nqreg q[1];\nrz("+strings.Repeat("-", 100001)+"+-+2) q[0];\n")
	if got := p.Circuit.Gates[0].Params[0]; got != 2 {
		t.Fatalf("100002 minus signs over 2 = %v", got)
	}
}
