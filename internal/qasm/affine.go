package qasm

import (
	"fmt"
	"math"

	"hisvsim/internal/gate"
)

// affineOf lowers a parameter expression to the affine form scale·θ+offset
// over at most one free symbol (θ absent means a constant). This is the
// whole symbolic surface the QASM front end admits — it matches gate.Param
// exactly, so `rz(2*gamma+pi/2) q[0];` parses into a bindable template gate
// while anything nonlinear in a symbol (theta^2, sin(theta), theta*phi) is
// rejected with the reason named. Constant subexpressions may still use the
// full expression grammar, including functions.
func affineOf(e expr) (sym string, scale, off float64, err error) {
	switch t := e.(type) {
	case numExpr:
		return "", 0, float64(t), nil
	case identExpr:
		if t == "pi" {
			return "", 0, math.Pi, nil
		}
		return string(t), 1, 0, nil
	case unaryExpr:
		s, sc, o, err := affineOf(t.x)
		if err != nil {
			return "", 0, 0, err
		}
		if t.op == '-' {
			return s, -sc, -o, nil
		}
		return s, sc, o, nil
	case binExpr:
		ls, lsc, lo, err := affineOf(t.l)
		if err != nil {
			return "", 0, 0, err
		}
		rs, rsc, ro, err := affineOf(t.r)
		if err != nil {
			return "", 0, 0, err
		}
		switch t.op {
		case '+', '-':
			if t.op == '-' {
				rsc, ro = -rsc, -ro
			}
			switch {
			case ls == "" && rs == "":
				return "", 0, lo + ro, nil
			case ls == "" || rs == "" || ls == rs:
				s := ls
				if s == "" {
					s = rs
				}
				return s, lsc + rsc, lo + ro, nil
			default:
				return "", 0, 0, fmt.Errorf("parameter mixes symbols %q and %q (one symbol per angle)", ls, rs)
			}
		case '*':
			switch {
			case ls == "" && rs == "":
				return "", 0, lo * ro, nil
			case ls != "" && rs != "":
				return "", 0, 0, fmt.Errorf("nonlinear parameter: %q times %q", ls, rs)
			case ls != "":
				return ls, lsc * ro, lo * ro, nil
			default:
				return rs, rsc * lo, ro * lo, nil
			}
		case '/':
			if rs != "" {
				return "", 0, 0, fmt.Errorf("symbol %q in a divisor is not affine", rs)
			}
			if ro == 0 {
				return "", 0, 0, fmt.Errorf("division by zero")
			}
			return ls, lsc / ro, lo / ro, nil
		case '^':
			if ls != "" || rs != "" {
				s := ls
				if s == "" {
					s = rs
				}
				return "", 0, 0, fmt.Errorf("symbol %q under ^ is not affine", s)
			}
			return "", 0, math.Pow(lo, ro), nil
		}
		return "", 0, 0, fmt.Errorf("bad operator %q", t.op)
	case callExpr:
		s, _, o, err := affineOf(t.x)
		if err != nil {
			return "", 0, 0, err
		}
		if s != "" {
			return "", 0, 0, fmt.Errorf("symbol %q inside %s() is not affine", s, t.fn)
		}
		v, err := callExpr{fn: t.fn, x: numExpr(o)}.eval(nil)
		if err != nil {
			return "", 0, 0, err
		}
		return "", 0, v, nil
	}
	return "", 0, 0, fmt.Errorf("unsupported parameter expression")
}

// paramOf converts an expression into a gate.Param: constants fold to
// literals, single-symbol affine forms stay symbolic.
func paramOf(e expr) (gate.Param, error) {
	sym, scale, off, err := affineOf(e)
	if err != nil {
		return gate.Param{}, err
	}
	if sym == "" {
		return gate.Lit(off), nil
	}
	// off+0 turns a −0 offset into +0: -2*g and 0-2*g are one template (the
	// first folds to offset 0·(−2) = −0), and the fingerprint hashes the bits.
	return gate.Affine(scale, sym, off+0), nil
}
