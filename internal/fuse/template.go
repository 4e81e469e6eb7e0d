package fuse

import (
	"fmt"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/sv"
)

// This file compiles parameterized circuits once and re-binds them cheaply.
// The key invariant making that sound: fusion structure is angle-independent.
// Diagonality (gate.IsDiagonal), the monomial rule that turns a closed
// permutation window such as cx·rz·cx into a diagonal, and the fusion cost
// model all consult only gate names and qubit supports, never Params or a
// matrix entry — a placeholder angle at which rx is numerically the identity
// changes nothing — so a plan built at the template's placeholder angles has
// exactly the right block boundaries, supports, and kernel index tables for
// every binding. Only the numeric payloads (dense matrices, diagonal tables,
// Single gates) of symbol-touched blocks need re-materializing — and their
// ops re-binding — per binding; everything else is shared read-only.

// Parametric reports whether any source gate of the block carries a
// symbolic parameter (i.e. its Matrix/Diag depend on the binding).
func (b *Block) Parametric() bool {
	for _, g := range b.Gates {
		if g.Parametric() {
			return true
		}
	}
	return false
}

// Specialize returns a concrete copy of the block for one binding: source
// gates bound, and the dense matrix or diagonal rebuilt from the bound
// angles. Blocks with no symbolic gates are returned unchanged (sharing
// their read-only payloads).
func (b *Block) Specialize(env map[string]float64) (Block, error) {
	if !b.Parametric() {
		return *b, nil
	}
	gs := make([]gate.Gate, len(b.Gates))
	for i, g := range b.Gates {
		bg, err := g.Bind(env)
		if err != nil {
			return Block{}, fmt.Errorf("fuse: %w", err)
		}
		gs[i] = bg
	}
	out := Block{Kind: b.Kind, Qubits: b.Qubits, Gates: gs}
	switch b.Kind {
	case Diagonal:
		out.Diag = buildDiagonal(b.Qubits, gs)
	case Dense:
		out.Matrix = buildMatrix(b.Qubits, gs)
	}
	return out, nil
}

// Template is a parameterized circuit compiled once: fused blocks built at
// placeholder angles, their lowered kernel ops, and the indices of the blocks
// a binding actually has to rebuild. Specialize produces per-binding block
// lists in O(touched blocks) instead of re-running fusion.
type Template struct {
	N       int      // qubit count
	Blocks  []Block  // compiled at placeholder angles; Gates keep their symbolic Args
	Ops     []sv.Op  // Blocks lowered once; every binding shares their index tables
	Symbols []string // sorted symbols the circuit references
	touched []int    // indices into Blocks of parametric blocks
}

// CompileTemplate fuses a (possibly parameterized) circuit into a reusable
// template. Concrete circuits compile too — they just have nothing to
// re-specialize, so Specialize degenerates to returning the shared blocks.
func CompileTemplate(c *circuit.Circuit, opts Options) (*Template, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("fuse: %w", err)
	}
	blocks, err := Fuse(c.Gates, opts)
	if err != nil {
		return nil, err
	}
	ops, err := Plan(blocks, c.NumQubits)
	if err != nil {
		return nil, err
	}
	t := &Template{N: c.NumQubits, Blocks: blocks, Ops: ops, Symbols: c.Symbols()}
	for i := range blocks {
		if blocks[i].Parametric() {
			t.touched = append(t.touched, i)
		}
	}
	return t, nil
}

// TouchedBlocks returns how many blocks a binding rebuilds (the rest are
// shared); it is the template's per-binding specialization cost in blocks.
func (t *Template) TouchedBlocks() int { return len(t.touched) }

// Specialize returns the concrete block list for one binding: a fresh slice
// whose symbol-touched entries are rebuilt for env and whose remaining
// entries alias the template's read-only blocks. Callers on different
// bindings may specialize concurrently: the template itself is never
// mutated.
func (t *Template) Specialize(env map[string]float64) ([]Block, error) {
	if len(t.touched) == 0 {
		return t.Blocks, nil
	}
	blocks := append([]Block(nil), t.Blocks...)
	for _, i := range t.touched {
		b, err := t.Blocks[i].Specialize(env)
		if err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	return blocks, nil
}

// Replay specializes the template for env and replays it into st, which it
// first resets to |0…0⟩ — the form for callers that evaluate many bindings
// and read each state out before the next (a sweep, an optimizer loop): one
// 2^n buffer serves them all.
func (t *Template) Replay(st *sv.State, env map[string]float64) error {
	if st.N != t.N {
		return fmt.Errorf("fuse: %d-qubit template replayed into a %d-qubit state", t.N, st.N)
	}
	blocks, err := t.Specialize(env)
	if err != nil {
		return err
	}
	ops := t.Ops
	if len(t.touched) > 0 {
		ops = append([]sv.Op(nil), t.Ops...)
		for _, i := range t.touched {
			ops[i] = blocks[i].Rebind(ops[i])
		}
	}
	clear(st.Amps)
	st.Amps[0] = 1
	st.ApplyOps(ops)
	return nil
}

// Run replays the template for env into a fresh state with the given worker
// bound and returns it.
func (t *Template) Run(env map[string]float64, workers int) (*sv.State, error) {
	st := sv.NewState(t.N)
	st.Workers = workers
	if err := t.Replay(st, env); err != nil {
		return nil, err
	}
	return st, nil
}
