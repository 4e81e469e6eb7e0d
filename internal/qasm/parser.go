package qasm

import (
	"fmt"
	"math"
	"strconv"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
)

// Measure records a measure statement (simulation of measurement is left to
// the caller; HiSVSIM benchmarks simulate pure unitary evolution).
type Measure struct {
	Qubit int // global qubit index, -1 for whole-register measure
	CReg  string
	CBit  int
}

// Program is the result of parsing an OpenQASM 2.0 source.
type Program struct {
	Circuit  *circuit.Circuit
	Measures []Measure
	Barriers int
	CRegs    map[string]int // creg name -> size
}

// Parse reads OpenQASM 2.0 source and returns the program. Supported:
// OPENQASM/include headers, qreg/creg, the full qelib1 gate vocabulary that
// internal/gate implements, user `gate` definitions (expanded inline),
// parameter expressions, register broadcast, barrier and measure. The
// unsupported statements (if, reset, opaque) yield errors.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src), prog: &Program{CRegs: map[string]int{}},
		qregs: map[string]qreg{}, userGates: map[string]*gateDef{}}
	p.tok = p.scan()
	err := p.run()
	if err != nil {
		// A character the lexer rejects anywhere in the source is reported
		// before any error of the grammar, as when the source was tokenized
		// up front.
		for p.tok.kind != tokEOF {
			p.tok = p.scan()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return p.prog, nil
}

// ParseToCircuit parses src and returns just the circuit.
func ParseToCircuit(src string) (*circuit.Circuit, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return prog.Circuit, nil
}

// MaxQubits bounds the total declared register width of a parsed program:
// far beyond anything simulable, generous enough for partition-only
// analysis of wide circuits.
const MaxQubits = 1 << 16

// MaxGates bounds the gate applications a program expands to (user gates
// count, with every statement of their bodies), and maxGateNesting how deep
// user gates may call one another: a definition costs a line to write, but k
// doubling definitions expand to 2^k applications and a gate naming itself
// never stops, so both are errors before they are time or memory.
const (
	MaxGates       = 1 << 20
	maxGateNesting = 64
)

// maxExprDepth bounds parenthesis, call and ^ nesting in an angle expression:
// the expression parser recurses per level, and a request body of open
// parentheses must be an error, not a stack the runtime refuses to grow.
const maxExprDepth = 256

type qreg struct {
	offset, size int
}

type gateDef struct {
	params []string
	qargs  []string
	body   []bodyStmt
}

type bodyStmt struct {
	name   string
	params []expr
	qargs  []string // names referencing the enclosing def's qargs
}

// parser reads the source one token ahead: a token is 32 bytes for a byte
// or two of source, so a materialized token list would be the largest thing
// a parse allocates.
type parser struct {
	lex       *lexer
	tok       token // the lookahead
	lexErr    error // the lexer's first error; the lookahead is then EOF
	prog      *Program
	qregs     map[string]qreg
	nextQubit int
	userGates map[string]*gateDef
	emits     int // emit calls so far, bounded by MaxGates
	exprDepth int // live expression recursion, bounded by maxExprDepth
}

func (p *parser) peek() token { return p.tok }
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.scan()
	}
	return t
}

// scan lexes the next token; a lexer error ends the token stream.
func (p *parser) scan() token {
	t, err := p.lex.next()
	if err != nil {
		p.lexErr = err
		return token{kind: tokEOF, line: p.lex.line}
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectSymbol(s string) error {
	t := p.advance()
	if t.kind != tokSymbol || t.text != s {
		return p.errorf(t, "expected %q, got %s", s, t)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return t, p.errorf(t, "expected identifier, got %s", t)
	}
	return t, nil
}

func (p *parser) run() error {
	p.prog.Circuit = circuit.New("qasm", 1)
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return p.errorf(t, "expected statement, got %s", t)
		}
		switch t.text {
		case "OPENQASM":
			p.advance()
			v := p.advance()
			if v.kind != tokNumber {
				return p.errorf(v, "expected version number")
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case "include":
			p.advance()
			f := p.advance()
			if f.kind != tokString {
				return p.errorf(f, "expected include filename string")
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case "qreg":
			if err := p.parseQreg(); err != nil {
				return err
			}
		case "creg":
			if err := p.parseCreg(); err != nil {
				return err
			}
		case "gate":
			if err := p.parseGateDef(); err != nil {
				return err
			}
		case "barrier":
			p.advance()
			for p.peek().kind != tokEOF && !(p.peek().kind == tokSymbol && p.peek().text == ";") {
				p.advance()
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
			p.prog.Barriers++
		case "measure":
			if err := p.parseMeasure(); err != nil {
				return err
			}
		case "if", "reset", "opaque":
			return p.errorf(t, "unsupported statement %q", t.text)
		default:
			if err := p.parseApplication(); err != nil {
				return err
			}
		}
	}
	if p.nextQubit == 0 {
		return fmt.Errorf("qasm: no qreg declared")
	}
	p.prog.Circuit.NumQubits = p.nextQubit
	return p.prog.Circuit.Validate()
}

func (p *parser) parseQreg() error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	size, err := p.parseBracketInt()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if _, dup := p.qregs[name.text]; dup {
		return p.errorf(name, "duplicate qreg %q", name.text)
	}
	// A declaration costs nothing to write but O(qubits) to validate and
	// broadcast over, so bound it before anything allocates by it.
	if size > MaxQubits-p.nextQubit {
		return p.errorf(name, "qreg %q[%d] exceeds the %d-qubit parser limit", name.text, size, MaxQubits)
	}
	p.qregs[name.text] = qreg{offset: p.nextQubit, size: size}
	p.nextQubit += size
	return nil
}

func (p *parser) parseCreg() error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	size, err := p.parseBracketInt()
	if err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	p.prog.CRegs[name.text] = size
	return nil
}

func (p *parser) parseBracketInt() (int, error) {
	if err := p.expectSymbol("["); err != nil {
		return 0, err
	}
	t := p.advance()
	if t.kind != tokNumber {
		return 0, p.errorf(t, "expected integer, got %s", t)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errorf(t, "bad index %q", t.text)
	}
	if err := p.expectSymbol("]"); err != nil {
		return 0, err
	}
	return n, nil
}

func (p *parser) parseMeasure() error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	reg, ok := p.qregs[name.text]
	if !ok {
		return p.errorf(name, "unknown qreg %q", name.text)
	}
	idx := -1
	if p.peek().kind == tokSymbol && p.peek().text == "[" {
		idx, err = p.parseBracketInt()
		if err != nil {
			return err
		}
		if idx >= reg.size {
			return p.errorf(name, "measure index %d out of range", idx)
		}
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	cname, err := p.expectIdent()
	if err != nil {
		return err
	}
	cbit := -1
	if p.peek().kind == tokSymbol && p.peek().text == "[" {
		cbit, err = p.parseBracketInt()
		if err != nil {
			return err
		}
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	q := -1
	if idx >= 0 {
		q = reg.offset + idx
	}
	p.prog.Measures = append(p.prog.Measures, Measure{Qubit: q, CReg: cname.text, CBit: cbit})
	return nil
}

// parseGateDef handles `gate name(p0,p1) a,b { ... }`.
func (p *parser) parseGateDef() error {
	p.advance()
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &gateDef{}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.advance()
		for {
			if p.peek().kind == tokSymbol && p.peek().text == ")" {
				p.advance()
				break
			}
			id, err := p.expectIdent()
			if err != nil {
				return err
			}
			def.params = append(def.params, id.text)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.advance()
			}
		}
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.qargs = append(def.qargs, id.text)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && t.text == "}" {
			p.advance()
			break
		}
		if t.kind == tokEOF {
			return p.errorf(t, "unterminated gate body for %q", name.text)
		}
		if t.kind == tokIdent && t.text == "barrier" {
			p.advance()
			for !(p.peek().kind == tokSymbol && p.peek().text == ";") {
				if p.peek().kind == tokEOF {
					return p.errorf(t, "unterminated barrier")
				}
				p.advance()
			}
			p.advance()
			continue
		}
		stmt, err := p.parseBodyStmt(def)
		if err != nil {
			return err
		}
		def.body = append(def.body, stmt)
	}
	p.userGates[name.text] = def
	return nil
}

func (p *parser) parseBodyStmt(def *gateDef) (bodyStmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return bodyStmt{}, err
	}
	stmt := bodyStmt{name: name.text}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.advance()
		for {
			if p.peek().kind == tokSymbol && p.peek().text == ")" {
				p.advance()
				break
			}
			// Normalize nil→empty so zero-param gate bodies still reject
			// free identifiers (nil kp means top level; see parseAtom).
			kp := def.params
			if kp == nil {
				kp = []string{}
			}
			e, err := p.parseExpr(kp)
			if err != nil {
				return bodyStmt{}, err
			}
			stmt.params = append(stmt.params, e)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.advance()
			}
		}
	}
	known := map[string]bool{}
	for _, q := range def.qargs {
		known[q] = true
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return bodyStmt{}, err
		}
		if !known[id.text] {
			return bodyStmt{}, p.errorf(id, "gate body references unknown qubit %q", id.text)
		}
		stmt.qargs = append(stmt.qargs, id.text)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return bodyStmt{}, err
	}
	return stmt, nil
}

// qubitArg is a register reference with optional index (-1 = whole register).
type qubitArg struct {
	reg qreg
	idx int
}

// parseApplication handles a top-level gate application statement. Angle
// expressions may reference free symbols in affine form (e.g. `rz(2*gamma)`),
// which turn the parsed circuit into a bindable template; see affineOf.
func (p *parser) parseApplication() error {
	name := p.advance()
	var params []gate.Param
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.advance()
		for {
			if p.peek().kind == tokSymbol && p.peek().text == ")" {
				p.advance()
				break
			}
			e, err := p.parseExpr(nil)
			if err != nil {
				return err
			}
			prm, err := paramOf(e)
			if err != nil {
				return p.errorf(name, "%v", err)
			}
			params = append(params, prm)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.advance()
			}
		}
	}
	var args []qubitArg
	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		reg, ok := p.qregs[id.text]
		if !ok {
			return p.errorf(id, "unknown qreg %q", id.text)
		}
		idx := -1
		if p.peek().kind == tokSymbol && p.peek().text == "[" {
			idx, err = p.parseBracketInt()
			if err != nil {
				return err
			}
			if idx >= reg.size {
				return p.errorf(id, "index %d out of range for qreg %q[%d]", idx, id.text, reg.size)
			}
		}
		args = append(args, qubitArg{reg: reg, idx: idx})
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}

	// Broadcast: all whole-register args must share one size.
	bsize := 1
	for _, a := range args {
		if a.idx < 0 {
			if bsize != 1 && bsize != a.reg.size {
				return p.errorf(name, "broadcast size mismatch")
			}
			bsize = a.reg.size
		}
	}
	for b := 0; b < bsize; b++ {
		qubits := make([]int, len(args))
		for i, a := range args {
			if a.idx < 0 {
				qubits[i] = a.reg.offset + b
			} else {
				qubits[i] = a.reg.offset + a.idx
			}
		}
		if err := p.emit(name, name.text, params, qubits, 0); err != nil {
			return err
		}
	}
	return nil
}

// emit appends gate `name` on absolute qubits, expanding user gates.
// Symbolic params survive on builtin parametric gates (they attach as a
// gate.Args overlay); user-defined gates evaluate their bodies numerically
// and therefore only accept concrete angles.
func (p *parser) emit(tok token, name string, params []gate.Param, qubits []int, depth int) error {
	if p.emits++; p.emits > MaxGates {
		return p.errorf(tok, "program expands to more than %d gate applications", MaxGates)
	}
	if def, ok := p.userGates[name]; ok {
		if depth == maxGateNesting {
			return p.errorf(tok, "gate %q nests more than %d definitions deep (does it call itself?)", name, maxGateNesting)
		}
		if len(params) != len(def.params) {
			return p.errorf(tok, "gate %q wants %d params, got %d", name, len(def.params), len(params))
		}
		if len(qubits) != len(def.qargs) {
			return p.errorf(tok, "gate %q wants %d qubits, got %d", name, len(def.qargs), len(qubits))
		}
		env := map[string]float64{}
		for i, pn := range def.params {
			if params[i].Symbolic() {
				return p.errorf(tok, "symbolic parameter %q on user-defined gate %q (only builtin gates take symbols)",
					params[i].Symbol, name)
			}
			env[pn] = params[i].Value
		}
		qmap := map[string]int{}
		for i, qn := range def.qargs {
			qmap[qn] = qubits[i]
		}
		for _, stmt := range def.body {
			sub := make([]gate.Param, len(stmt.params))
			for i, e := range stmt.params {
				v, err := e.eval(env)
				if err != nil {
					return p.errorf(tok, "in gate %q: %v", name, err)
				}
				sub[i] = gate.Lit(v)
			}
			qs := make([]int, len(stmt.qargs))
			for i, qn := range stmt.qargs {
				qs[i] = qmap[qn]
			}
			if err := p.emit(tok, stmt.name, sub, qs, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	vals := make([]float64, len(params))
	symbolic := false
	for i, prm := range params {
		vals[i] = prm.Placeholder()
		if prm.Symbolic() {
			symbolic = true
		}
		// A NaN or ±Inf angle is a NaN state, and neither has a QASM spelling.
		for _, v := range [...]float64{prm.Value, prm.Scale, prm.Offset} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return p.errorf(tok, "gate %q: parameter %d is not finite", name, i)
			}
		}
	}
	g, err := builtinGate(name, vals, qubits)
	if err != nil {
		return p.errorf(tok, "%v", err)
	}
	if symbolic {
		if len(g.Params) != len(params) {
			return p.errorf(tok, "gate %q does not accept symbolic parameters", name)
		}
		g = g.WithArgs(params...)
	}
	p.prog.Circuit.Append(g)
	return nil
}

// builtinArity is the qelib1 vocabulary: name → {angle parameters, qubits}.
// It is the one arity check builtinGate makes before indexing either list.
var builtinArity = map[string][2]int{
	"id": {0, 1}, "x": {0, 1}, "y": {0, 1}, "z": {0, 1}, "h": {0, 1},
	"s": {0, 1}, "sdg": {0, 1}, "t": {0, 1}, "tdg": {0, 1}, "sx": {0, 1},
	"rx": {1, 1}, "ry": {1, 1}, "rz": {1, 1}, "p": {1, 1}, "u1": {1, 1},
	"u2": {2, 1}, "u3": {3, 1}, "u": {3, 1}, "U": {3, 1},
	"cx": {0, 2}, "CX": {0, 2}, "cy": {0, 2}, "cz": {0, 2}, "ch": {0, 2},
	"swap": {0, 2}, "cp": {1, 2}, "cu1": {1, 2}, "crx": {1, 2},
	"cry": {1, 2}, "crz": {1, 2}, "cu3": {3, 2}, "rzz": {1, 2},
	"ccx": {0, 3}, "cswap": {0, 3},
}

// builtinGate maps a qelib1 name to an internal gate.Gate.
func builtinGate(name string, params []float64, qubits []int) (gate.Gate, error) {
	want, known := builtinArity[name]
	if !known {
		return gate.Gate{}, fmt.Errorf("unknown gate %q", name)
	}
	if len(params) != want[0] {
		return gate.Gate{}, fmt.Errorf("gate %q wants %d params, got %d", name, want[0], len(params))
	}
	if len(qubits) != want[1] {
		return gate.Gate{}, fmt.Errorf("gate %q wants %d qubits, got %d", name, want[1], len(qubits))
	}
	switch name {
	case "id":
		return gate.ID(qubits[0]), nil
	case "x":
		return gate.X(qubits[0]), nil
	case "y":
		return gate.Y(qubits[0]), nil
	case "z":
		return gate.Z(qubits[0]), nil
	case "h":
		return gate.H(qubits[0]), nil
	case "s":
		return gate.S(qubits[0]), nil
	case "sdg":
		return gate.Sdg(qubits[0]), nil
	case "t":
		return gate.T(qubits[0]), nil
	case "tdg":
		return gate.Tdg(qubits[0]), nil
	case "sx":
		return gate.SX(qubits[0]), nil
	case "rx":
		return gate.RX(params[0], qubits[0]), nil
	case "ry":
		return gate.RY(params[0], qubits[0]), nil
	case "rz":
		return gate.RZ(params[0], qubits[0]), nil
	case "p", "u1":
		return gate.P(params[0], qubits[0]), nil
	case "u2":
		return gate.U2(params[0], params[1], qubits[0]), nil
	case "u3", "u", "U":
		return gate.U3(params[0], params[1], params[2], qubits[0]), nil
	case "cx", "CX":
		return gate.CX(qubits[0], qubits[1]), nil
	case "cy":
		return gate.CY(qubits[0], qubits[1]), nil
	case "cz":
		return gate.CZ(qubits[0], qubits[1]), nil
	case "ch":
		return gate.CH(qubits[0], qubits[1]), nil
	case "swap":
		return gate.SWAP(qubits[0], qubits[1]), nil
	case "cp", "cu1":
		return gate.CP(params[0], qubits[0], qubits[1]), nil
	case "crx":
		return gate.CRX(params[0], qubits[0], qubits[1]), nil
	case "cry":
		return gate.CRY(params[0], qubits[0], qubits[1]), nil
	case "crz":
		return gate.CRZ(params[0], qubits[0], qubits[1]), nil
	case "cu3":
		return gate.CU3(params[0], params[1], params[2], qubits[0], qubits[1]), nil
	case "rzz":
		return gate.RZZ(params[0], qubits[0], qubits[1]), nil
	case "ccx":
		return gate.CCX(qubits[0], qubits[1], qubits[2]), nil
	case "cswap":
		return gate.CSWAP(qubits[0], qubits[1], qubits[2]), nil
	default:
		return gate.Gate{}, fmt.Errorf("unknown gate %q", name)
	}
}

// --- parameter expressions ---

type expr interface {
	eval(env map[string]float64) (float64, error)
}

type numExpr float64

func (n numExpr) eval(map[string]float64) (float64, error) { return float64(n), nil }

type identExpr string

func (id identExpr) eval(env map[string]float64) (float64, error) {
	if id == "pi" {
		return math.Pi, nil
	}
	if v, ok := env[string(id)]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown parameter %q", string(id))
}

type unaryExpr struct {
	op byte
	x  expr
}

func (u unaryExpr) eval(env map[string]float64) (float64, error) {
	v, err := u.x.eval(env)
	if err != nil {
		return 0, err
	}
	if u.op == '-' {
		return -v, nil
	}
	return v, nil
}

type binExpr struct {
	op   byte
	l, r expr
}

func (b binExpr) eval(env map[string]float64) (float64, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("bad operator %q", b.op)
}

type callExpr struct {
	fn string
	x  expr
}

func (c callExpr) eval(env map[string]float64) (float64, error) {
	v, err := c.x.eval(env)
	if err != nil {
		return 0, err
	}
	switch c.fn {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		return math.Log(v), nil
	case "sqrt":
		return math.Sqrt(v), nil
	}
	return 0, fmt.Errorf("unknown function %q", c.fn)
}

// parseExpr parses an additive expression. knownParams lists identifiers
// valid inside gate bodies (besides pi and function names).
func (p *parser) parseExpr(knownParams []string) (expr, error) {
	return p.parseAdditive(knownParams)
}

func (p *parser) parseAdditive(kp []string) (expr, error) {
	l, err := p.parseMultiplicative(kp)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.advance()
			r, err := p.parseMultiplicative(kp)
			if err != nil {
				return nil, err
			}
			l = binExpr{op: t.text[0], l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMultiplicative(kp []string) (expr, error) {
	l, err := p.parsePower(kp)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.advance()
			r, err := p.parsePower(kp)
			if err != nil {
				return nil, err
			}
			l = binExpr{op: t.text[0], l: l, r: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parsePower(kp []string) (expr, error) {
	// Every nesting — parentheses, calls, a ^ chain — recurses through here.
	if p.exprDepth++; p.exprDepth > maxExprDepth {
		return nil, p.errorf(p.peek(), "expression nests deeper than %d levels", maxExprDepth)
	}
	defer func() { p.exprDepth-- }()
	l, err := p.parseUnary(kp)
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol && t.text == "^" {
		p.advance()
		r, err := p.parsePower(kp) // right associative
		if err != nil {
			return nil, err
		}
		return binExpr{op: '^', l: l, r: r}, nil
	}
	return l, nil
}

// parseUnary folds a run of signs into at most one negation (−−x is x, bit
// for bit), so a run of any length costs no stack.
func (p *parser) parseUnary(kp []string) (expr, error) {
	neg := false
	for t := p.peek(); t.kind == tokSymbol && (t.text == "-" || t.text == "+"); t = p.peek() {
		p.advance()
		neg = neg != (t.text == "-")
	}
	x, err := p.parseAtom(kp)
	if err != nil || !neg {
		return x, err
	}
	return unaryExpr{op: '-', x: x}, nil
}

func (p *parser) parseAtom(kp []string) (expr, error) {
	t := p.advance()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t, "bad number %q", t.text)
		}
		return numExpr(v), nil
	case t.kind == tokIdent:
		// Function call?
		if p.peek().kind == tokSymbol && p.peek().text == "(" {
			switch t.text {
			case "sin", "cos", "tan", "exp", "ln", "sqrt":
				p.advance()
				x, err := p.parseExpr(kp)
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return callExpr{fn: t.text, x: x}, nil
			}
		}
		if t.text == "pi" {
			return identExpr("pi"), nil
		}
		// Inside a gate body (kp non-nil) identifiers must be formal
		// parameters; at the top level (kp nil) any other identifier is a
		// free symbol and the statement becomes a template gate (affineOf
		// checks linearity once the whole expression is parsed).
		if kp == nil {
			return identExpr(t.text), nil
		}
		for _, k := range kp {
			if k == t.text {
				return identExpr(t.text), nil
			}
		}
		return nil, p.errorf(t, "unknown identifier %q in expression", t.text)
	case t.kind == tokSymbol && t.text == "(":
		x, err := p.parseExpr(kp)
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, p.errorf(t, "expected expression, got %s", t)
	}
}
