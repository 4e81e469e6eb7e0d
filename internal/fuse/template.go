package fuse

import (
	"fmt"
	"math"
	"slices"

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
// ops re-binding — per binding; everything else is shared read-only. Rebind
// is that step for any lowered run, fused or not.
//
// The template also records which symbols each touched block reads. A Binder
// — one caller's private, re-bindable op list — uses that to rebuild, from
// one binding to the next, only the payloads whose symbols changed value, and
// a sweep uses it to find the prefix of the block list that a group of
// bindings shares (FirstUse). Replay and Run are a Binder used once.

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
// angles. Its callers (Rebind, Binder) call it on parametric blocks only.
func (b *Block) Specialize(env map[string]float64) (Block, error) {
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
// placeholder angles, their lowered kernel ops, the indices of the blocks a
// binding actually has to rebuild and the symbols each of those reads.
// Specialize produces per-binding block lists in O(touched blocks) instead of
// re-running fusion; it is read-only after CompileTemplate and shared by
// every goroutine that binds it.
type Template struct {
	N       int      // qubit count
	Blocks  []Block  // compiled at placeholder angles; Gates keep their symbolic Args
	Ops     []sv.Op  // Blocks lowered once; every binding shares their index tables
	Symbols []string // sorted symbols the circuit references
	touched []int    // indices into Blocks of parametric blocks, ascending
	reads   [][]int  // reads[k]: the Symbols indices Blocks[touched[k]] reads
	first   []int    // first[s]: the first block that reads Symbols[s]
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
	t.first = make([]int, len(t.Symbols))
	for s := range t.first {
		t.first[s] = len(blocks)
	}
	for i := range blocks {
		var reads []int
		for _, g := range blocks[i].Gates {
			for _, a := range g.Args {
				if !a.Symbolic() {
					continue
				}
				s, _ := slices.BinarySearch(t.Symbols, a.Symbol)
				if !slices.Contains(reads, s) {
					reads = append(reads, s)
				}
				t.first[s] = min(t.first[s], i)
			}
		}
		if reads != nil {
			t.touched = append(t.touched, i)
			t.reads = append(t.reads, reads)
		}
	}
	return t, nil
}

// TouchedBlocks returns how many blocks a binding rebuilds (the rest are
// shared); it is the template's per-binding specialization cost in blocks.
func (t *Template) TouchedBlocks() int { return len(t.touched) }

// FirstUse returns, per entry of Symbols, the index of the first block that
// reads the symbol. Blocks before FirstUse()[s] do not depend on symbol s,
// so bindings that agree on every symbol first used before block c leave the
// same state behind blocks [0, c) — the prefix a sweep computes once for all
// of them. The slice is the template's own: read-only.
func (t *Template) FirstUse() []int { return t.first }

// Rebind binds a lowered run (Lower's, or a template's Blocks and Ops) to
// env: fresh slices whose parametric blocks are rebuilt for env, their ops
// re-bound with the index tables shared, and whose other entries alias the
// input. A run with no parametric block comes back as the same slices; the
// inputs are never written.
func Rebind(blocks []Block, ops []sv.Op, env map[string]float64) ([]Block, []sv.Op, error) {
	outBlocks, outOps, cloned := blocks, ops, false
	for i := range blocks {
		if !blocks[i].Parametric() {
			continue
		}
		b, err := blocks[i].Specialize(env)
		if err != nil {
			return nil, nil, err
		}
		if !cloned {
			outBlocks, outOps, cloned = slices.Clone(blocks), slices.Clone(ops), true
		}
		outBlocks[i], outOps[i] = b, b.rebind(ops[i])
	}
	return outBlocks, outOps, nil
}

// Specialize returns the concrete block list for one binding: Rebind's
// blocks, built from the template's touched list alone (no op is re-bound
// and no block is scanned for symbols). Callers on different bindings may
// specialize concurrently: the template itself is never mutated.
func (t *Template) Specialize(env map[string]float64) ([]Block, error) {
	if len(t.touched) == 0 {
		return t.Blocks, nil
	}
	blocks := slices.Clone(t.Blocks)
	for _, i := range t.touched {
		b, err := t.Blocks[i].Specialize(env)
		if err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	return blocks, nil
}

// Binder is one caller's binding of a template: a private copy of the op
// list whose touched entries carry the payloads of the values last bound.
// Bind is memoised on those values, so a caller that walks many bindings —
// a sweep worker, an optimizer loop — rebuilds a block's payload only when a
// symbol that block reads has changed since its previous binding. A Binder
// belongs to one goroutine; any number of them share one Template.
type Binder struct {
	t       *Template
	ops     []sv.Op
	env     map[string]float64 // Symbols → vals, the form Block.Specialize reads
	vals    []float64          // the values ops is bound to
	dirty   []bool             // scratch: which symbols the current Bind changed
	bound   bool               // ops reflects vals (false before the first Bind and after a failed one)
	rebuilt int
}

// NewBinder returns an unbound Binder of the template.
func (t *Template) NewBinder() *Binder {
	b := &Binder{t: t, ops: t.Ops}
	if len(t.touched) > 0 {
		b.ops = slices.Clone(t.Ops)
		b.env = make(map[string]float64, len(t.Symbols))
		b.vals = make([]float64, len(t.Symbols))
		b.dirty = make([]bool, len(t.Symbols))
	}
	return b
}

// Bind binds Symbols[s] to vals[s] for every s. Values are compared by bit
// pattern (rz(−0) and rz(+0) differ in the signs of their zeros), and only
// the blocks reading a changed symbol are re-specialized; the index tables
// of every op stay the template's.
func (b *Binder) Bind(vals []float64) error {
	t := b.t
	if len(vals) != len(t.Symbols) {
		return fmt.Errorf("fuse: %d values bound to a template of %d symbols", len(vals), len(t.Symbols))
	}
	if len(t.touched) == 0 {
		return nil
	}
	for s, v := range vals {
		b.dirty[s] = !b.bound || math.Float64bits(v) != math.Float64bits(b.vals[s])
		if b.dirty[s] {
			b.vals[s], b.env[t.Symbols[s]] = v, v
		}
	}
	b.bound = false
	for k, i := range t.touched {
		if !slices.ContainsFunc(t.reads[k], func(s int) bool { return b.dirty[s] }) {
			continue
		}
		blk, err := t.Blocks[i].Specialize(b.env)
		if err != nil {
			return err
		}
		b.ops[i] = blk.rebind(t.Ops[i])
		b.rebuilt++
	}
	b.bound = true
	return nil
}

// Ops returns the op list bound by the last successful Bind, block for
// block. It is the Binder's own and is overwritten by the next Bind.
func (b *Binder) Ops() []sv.Op { return b.ops }

// Rebuilt returns how many block payloads the Binder has rebuilt so far
// (TouchedBlocks per Bind without the memo).
func (b *Binder) Rebuilt() int { return b.rebuilt }

// Replay binds the template to env and replays it into st, which it first
// resets to |0…0⟩: the single-binding form of what a sweep worker does per
// point. Symbols missing from env are errors; extra keys are ignored.
func (t *Template) Replay(st *sv.State, env map[string]float64) error {
	if st.N != t.N {
		return fmt.Errorf("fuse: %d-qubit template replayed into a %d-qubit state", t.N, st.N)
	}
	vals := make([]float64, len(t.Symbols))
	for s, name := range t.Symbols {
		v, ok := env[name]
		if !ok {
			return fmt.Errorf("fuse: unbound symbol %q", name)
		}
		vals[s] = v
	}
	b := t.NewBinder()
	if err := b.Bind(vals); err != nil {
		return err
	}
	st.Reset()
	st.ApplyOps(b.ops)
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
