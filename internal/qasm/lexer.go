// Package qasm implements a reader and writer for the OpenQASM 2.0 subset
// used by the QASMBench circuits the paper evaluates: register declarations,
// the qelib1 gate set, user-defined gate declarations (expanded inline),
// parameter expressions over pi with + - * / ^ and the standard unary
// functions, register broadcast, and barrier/measure statements (recorded
// but not simulated).
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // one of ( ) [ ] { } ; , -> = < > + - * / ^
)

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// next returns the next token, skipping whitespace and comments.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if unicode.IsDigit(rune(ch)) {
				l.pos++
			} else if ch == '.' && !seenDot && !seenExp {
				seenDot = true
				l.pos++
			} else if (ch == 'e' || ch == 'E') && !seenExp {
				seenExp = true
				l.pos++
				if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
					l.pos++
				}
			} else {
				break
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: l.line}, nil
	case c == '"':
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errorf("unterminated string")
		}
		text := l.src[s:l.pos]
		l.pos++
		return token{kind: tokString, text: text, line: l.line}, nil
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{kind: tokSymbol, text: "->", line: l.line}, nil
	case c == '=' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=':
		l.pos += 2
		return token{kind: tokSymbol, text: "==", line: l.line}, nil
	case strings.ContainsRune("()[]{};,=<>+-*/^", rune(c)):
		l.pos++
		return token{kind: tokSymbol, text: string(c), line: l.line}, nil
	default:
		return token{}, l.errorf("unexpected character %q", c)
	}
}

func isIdentChar(c byte) bool {
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_'
}
