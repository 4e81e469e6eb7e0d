// Package fuse implements gate fusion: coalescing runs of consecutive gates
// whose combined qubit support stays small into single dense 2^k×2^k
// unitaries (or single 2^k diagonals for phase-only runs), so that deep
// circuits sweep the state vector once per block instead of once per gate.
// The paper positions such gate-level batching as orthogonal to partitioning
// (§II-C); here it multiplies with it: every executor fuses within the
// partition-bounded working sets it already has in cache.
//
// Fusion is greedy over the gate sequence with three rules:
//
//   - a structural diagonal rule: a window of monomial gates (permutation ×
//     phase — the diagonal gates plus x/cx/ccx/mcx/y/cy/swap/cswap) whose
//     permutations compose to the identity, such as the cx·rz·cx phase
//     gadget, is diagonal whatever its angles, so it joins diagonal runs as
//     one diagonal gate. The rule reads gate names only, never a matrix;
//   - a support cap (MaxQubits for dense blocks, MaxDiagQubits for diagonal
//     runs, which cost one multiply per amplitude regardless of k); and
//   - a per-amplitude cost model that only extends a dense block when the
//     grown 2^k matrix kernel is estimated to beat applying the incoming
//     gate in its own sweep (charging sweepOverhead per extra pass to model
//     memory traffic).
//
// A block of one gate stays a passthrough so the simulator's dedicated
// kernels (diagonal sweep, swap, 1- and 2-qubit fast paths with structural
// controls) keep applying.
package fuse

import (
	"fmt"
	"sort"

	"hisvsim/internal/circuit"
	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Kind discriminates how a block is executed.
type Kind int

const (
	// Single is a passthrough block: one gate, lowered by sv.GateOp.
	Single Kind = iota
	// Dense is a fused 2^k×2^k unitary over Qubits.
	Dense
	// Diagonal is a fused 2^k diagonal over Qubits: a run of diagonal gates
	// and closed monomial windows.
	Diagonal
)

// Block is one fused execution unit.
type Block struct {
	Kind   Kind
	Qubits []int        // sorted support (Dense and Diagonal kinds)
	Matrix gate.Matrix  // Dense: the fused unitary, little-endian over Qubits
	Diag   []complex128 // Diagonal: the fused diagonal over Qubits
	Gates  []gate.Gate  // the source gates, in application order
}

// Options configures fusion. Zero values select the defaults.
type Options struct {
	// MaxQubits caps the support of dense fused blocks (default 5). When
	// set explicitly it also caps diagonal runs unless MaxDiagQubits says
	// otherwise, so one knob bounds every fused table.
	MaxQubits int
	// MaxDiagQubits caps the support of fused diagonal runs (default 10
	// when MaxQubits is defaulted too, else MaxQubits); diagonal
	// application costs one multiply per amplitude regardless of k, so the
	// cap only bounds the 2^k diagonal table.
	MaxDiagQubits int
	// NoReorder disables the diagonal-grouping pre-pass (commuting diagonal
	// gates left past disjoint gates to lengthen diagonal runs).
	NoReorder bool
}

// DefaultMaxQubits is the dense fused-block support cap.
const DefaultMaxQubits = 5

// DefaultMaxDiagQubits is the diagonal-run support cap.
const DefaultMaxDiagQubits = 10

func (o Options) withDefaults() Options {
	if o.MaxDiagQubits <= 0 {
		// An explicit dense cap bounds diagonal tables too (the documented
		// MaxFuseQubits contract); only the full defaults split 5/10.
		if o.MaxQubits > 0 {
			o.MaxDiagQubits = o.MaxQubits
		} else {
			o.MaxDiagQubits = DefaultMaxDiagQubits
		}
	}
	if o.MaxQubits <= 0 {
		o.MaxQubits = DefaultMaxQubits
	}
	return o
}

// sweepOverhead is the per-amplitude cost charged for every extra full-state
// sweep a separate gate application would take (models memory traffic: each
// sweep reads and writes the whole vector). Calibrated conservatively — on
// cache-resident states a sweep costs about as much as one table-lookup
// pass, so dense blocks only grow when their supports substantially overlap
// (same-qubit singles, same-pair two-qubit runs); over-eager dense merging
// trades cheap specialized kernels for 2^k matrix rows and loses.
const sweepOverhead = 1.0

// gateCost estimates the per-amplitude cost of applying g unfused,
// including its sweep overhead.
func gateCost(g gate.Gate) float64 {
	if gate.IsDiagonal(g) {
		return 1 + sweepOverhead
	}
	if g.Name == "swap" && g.Ctrl == 0 {
		return 1 + sweepOverhead
	}
	t := len(g.Targets())
	if t <= 1 {
		return 2 + sweepOverhead
	}
	return float64(int(1)<<uint(t)) + 2 + sweepOverhead
}

// denseCost is the per-amplitude cost of one fused dense sweep on k qubits
// (2^k multiply-adds plus gather/scatter), excluding the shared sweep
// overhead, which both sides of every comparison pay exactly once.
func denseCost(k int) float64 { return float64(int(1)<<uint(k)) + 2 }

// Fuse coalesces the gate sequence into fused blocks. The concatenation of
// all blocks' unitaries equals the sequence's unitary exactly; only
// commuting reorderings (diagonal grouping) are applied unless NoReorder.
func Fuse(gates []gate.Gate, opts Options) ([]Block, error) {
	opts = opts.withDefaults()
	for i, g := range gates {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("fuse: gate %d: %w", i, err)
		}
	}
	if !opts.NoReorder {
		gates = circuit.GroupDiagonalGates(gates)
	}

	var blocks []Block
	var run []gate.Gate
	var support []int
	allDiag := false

	// curCost is the per-amplitude cost of the running block's current
	// representation (diagonal sweep, dense kernel, or single passthrough).
	curCost := func() float64 {
		if allDiag {
			return 1
		}
		if len(run) == 1 {
			return gateCost(run[0]) - sweepOverhead
		}
		return denseCost(len(support))
	}
	flush := func() {
		if len(run) == 0 {
			return
		}
		blocks = append(blocks, materialize(run, support, allDiag))
		run, support = nil, nil
	}

	// A window has to fit a block of either kind: it becomes a diagonal
	// run's item, or is absorbed whole into a dense block.
	windowCap := min(opts.MaxQubits, opts.MaxDiagQubits)
	for i := 0; i < len(gates); {
		// The next item is one gate, or a closed monomial window standing
		// as one diagonal gate over the window's support.
		item, d := gates[i:i+1], gate.IsDiagonal(gates[i])
		if w := closedWindow(gates[i:], windowCap); w > 0 {
			item, d = gates[i:i+w], true
		}
		i += len(item)
		var qs []int
		for _, g := range item {
			qs = unionSorted(qs, g.Qubits)
		}
		cost := gateCost(item[0])
		if d {
			cost = 1 + sweepOverhead
		}
		if len(run) == 0 {
			run, support, allDiag = append(run, item...), qs, d
			continue
		}
		u := unionSorted(support, qs)
		noGrowth := len(u) == len(support) && !allDiag && len(u) <= opts.MaxQubits
		switch {
		case allDiag && d && len(u) <= opts.MaxDiagQubits:
			// Diagonal runs extend freely: cost stays one multiply/amp.
			run, support = append(run, item...), u
		case noGrowth:
			// The item fits inside a dense block's existing support: the
			// kernel size is unchanged, so absorbing it saves its whole
			// sweep for free (h·cx·h on one pair stays one 2-qubit block).
			run = append(run, item...)
		case len(u) <= opts.MaxQubits && denseCost(len(u)) <= curCost()+cost:
			run, support = append(run, item...), u
			allDiag = allDiag && d
		default:
			flush()
			run, support, allDiag = append(run, item...), qs, d
		}
	}
	flush()
	return blocks, nil
}

// materialize builds the executable form of one block.
func materialize(run []gate.Gate, support []int, allDiag bool) Block {
	gs := append([]gate.Gate(nil), run...)
	qs := append([]int(nil), support...)
	if len(gs) == 1 {
		return Block{Kind: Single, Qubits: qs, Gates: gs}
	}
	if allDiag {
		return Block{Kind: Diagonal, Qubits: qs, Diag: buildDiagonal(qs, gs), Gates: gs}
	}
	return Block{Kind: Dense, Qubits: qs, Matrix: buildMatrix(qs, gs), Gates: gs}
}

// monomial reports whether the gate's full unitary is a permutation times a
// phase. Like gate.IsDiagonal the test is purely name-based, so whether a
// window of monomial gates is diagonal never depends on an angle.
func monomial(g gate.Gate) bool {
	switch g.Name {
	case "x", "cx", "ccx", "mcx", "y", "cy", "swap", "cswap":
		return true
	}
	return gate.IsDiagonal(g)
}

// image is the action of monomial gate g on basis state s, whose bit at[j]
// holds g.Qubits[j]: the state it maps to, and the (row, col) entry of g's
// base matrix that carries the phase. Where a control bit is clear the state
// is unchanged and on is false.
func image(g gate.Gate, at []uint, s int) (next, row, col int, on bool) {
	for _, c := range at[:g.Ctrl] {
		if s>>c&1 == 0 {
			return s, 0, 0, false
		}
	}
	targets := at[g.Ctrl:]
	for j, t := range targets {
		col |= (s >> t & 1) << uint(j)
	}
	switch g.Name {
	case "x", "cx", "ccx", "mcx", "y", "cy":
		row = col ^ 1
	case "swap", "cswap":
		row = col>>1 | col&1<<1
	default:
		row = col
	}
	next = s
	for j, t := range targets {
		next = next&^(1<<t) | (row>>uint(j)&1)<<t
	}
	return next, row, col, true
}

// numbering assigns bit positions to qubits in order of first appearance.
type numbering []int

// at returns the bit positions of g's qubits, numbering new ones.
func (nb *numbering) at(g gate.Gate) []uint {
	out := make([]uint, len(g.Qubits))
	for j, q := range g.Qubits {
		p := 0
		for p < len(*nb) && (*nb)[p] != q {
			p++
		}
		if p == len(*nb) {
			*nb = append(*nb, q)
		}
		out[j] = uint(p)
	}
	return out
}

// maxWindowGates bounds the scan for a window's closing gate; a k-qubit
// parity gadget closes after 2k−1 gates.
const maxWindowGates = 32

// closedWindow returns the length of the shortest prefix of gates that is
// made of monomial gates on at most maxQubits qubits, starts with a
// non-diagonal one and whose permutations compose to the identity — a
// structurally diagonal window — or 0 when there is none within
// maxWindowGates.
func closedWindow(gates []gate.Gate, maxQubits int) int {
	if len(gates) == 0 || gate.IsDiagonal(gates[0]) {
		return 0
	}
	var qubits numbering
	perm := []int{0} // perm[s]: where the gates so far send basis state s
	for i, g := range gates[:min(len(gates), maxWindowGates)] {
		if !monomial(g) {
			return 0
		}
		at := qubits.at(g)
		if len(qubits) > maxQubits {
			return 0
		}
		for hi := len(perm); hi < 1<<uint(len(qubits)); hi = len(perm) {
			for _, s := range perm[:hi] { // a new qubit is a new high bit, so far untouched
				perm = append(perm, s|hi)
			}
		}
		if gate.IsDiagonal(g) {
			continue
		}
		closed := true
		for s := range perm {
			perm[s], _, _, _ = image(g, at, perm[s])
			closed = closed && perm[s] == s
		}
		if closed {
			return i + 1
		}
	}
	return 0
}

// windowDiagonal pushes every basis state of a closed window's support
// through its gates, collecting the phases: the window's diagonal over
// qubits (qubits[j] is bit j of the index), with no 2^k×2^k matrix built.
func windowDiagonal(window []gate.Gate) (qubits []int, d []complex128) {
	var nb numbering
	ats := make([][]uint, len(window))
	mats := make([]gate.Matrix, len(window))
	for i, g := range window {
		ats[i], mats[i] = nb.at(g), g.BaseMatrix()
	}
	d = make([]complex128, 1<<uint(len(nb)))
	for s := range d {
		cur, phase := s, complex128(1)
		for i, g := range window {
			next, row, col, on := image(g, ats[i], cur)
			if on {
				phase *= mats[i].At(row, col)
			}
			cur = next
		}
		d[s] = phase
	}
	return nb, d
}

// buildDiagonal is the one diagonal builder: the run splits into its closed
// windows (a diagonal gate is a window of one), each contributes the small
// diagonal over its own support, and the block diagonal is their product —
// O(2^k · windows), which is what a template pays per binding.
func buildDiagonal(qs []int, gates []gate.Gate) []complex128 {
	pos := positionOf(qs)
	d := make([]complex128, 1<<uint(len(qs)))
	for i := range d {
		d[i] = 1
	}
	for len(gates) > 0 {
		w := 1
		if !gate.IsDiagonal(gates[0]) {
			if w = closedWindow(gates, len(qs)); w == 0 {
				panic(fmt.Sprintf("fuse: diagonal block holds an open window at %s", gates[0]))
			}
		}
		wq, wd := windowDiagonal(gates[:w])
		gates = gates[w:]
		at := make([]uint, len(wq)) // block-index bit of each window-index bit
		for j, q := range wq {
			at[j] = uint(pos[q])
		}
		for idx := range d {
			sub := 0
			for j, p := range at {
				sub |= (idx >> p & 1) << uint(j)
			}
			d[idx] *= wd[sub]
		}
	}
	return d
}

// buildMatrix multiplies the gates' embedded full unitaries over the block
// support (later gates multiply from the left: they apply after).
func buildMatrix(qs []int, gates []gate.Gate) gate.Matrix {
	k := len(qs)
	pos := positionOf(qs)
	u := gate.Identity(k)
	for _, g := range gates {
		full := g.FullMatrix()
		j := full.K
		ext := full
		if j < k {
			ext = gate.Identity(k - j).Kron(full)
		}
		// Old bit i of ext is the gate's i-th listed qubit (controls first);
		// route it to that qubit's position in the block support, and park
		// the identity bits on the unused positions.
		perm := make([]int, k)
		used := make([]bool, k)
		for i, q := range g.Qubits {
			perm[i] = pos[q]
			used[pos[q]] = true
		}
		next := 0
		for i := j; i < k; i++ {
			for used[next] {
				next++
			}
			perm[i] = next
			used[next] = true
		}
		u = ext.Permuted(perm).Mul(u)
	}
	return u
}

// Plan lowers every block — fused dense and diagonal blocks and Single
// passthroughs alike — to a kernel op for n-qubit states: index tables built
// once, payload attached. Executors that sweep the same blocks many times
// lower once and replay with State.ApplyOps, so their hot loops never
// revisit a gate; the result is read-only and safe to share across
// goroutines.
func Plan(blocks []Block, n int) ([]sv.Op, error) {
	ops := make([]sv.Op, len(blocks))
	for i := range blocks {
		b := &blocks[i]
		var err error
		switch b.Kind {
		case Single:
			ops[i], err = sv.GateOp(n, b.Gates[0])
		case Dense:
			ops[i] = sv.DenseOp(n, b.Qubits, nil, b.Matrix, prof.Dense)
		case Diagonal:
			ops[i] = sv.DiagonalOp(n, b.Qubits, b.Diag)
		default:
			err = fmt.Errorf("fuse: unknown block kind %d", b.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// Rebind returns op — lowered from a block of the same structure — with
// this block's payload: the index tables stay shared, only the numbers
// change. It is the per-binding step of a parameterized template.
func (b *Block) Rebind(op sv.Op) sv.Op {
	switch b.Kind {
	case Dense:
		return op.WithMatrix(b.Matrix)
	case Diagonal:
		return op.WithDiagonal(b.Diag)
	}
	return op.WithGate(b.Gates[0])
}

// Apply lowers the blocks for the state and executes them in order.
func Apply(st *sv.State, blocks []Block) error {
	ops, err := Plan(blocks, st.N)
	if err != nil {
		return err
	}
	st.ApplyOps(ops)
	return nil
}

// GateCount returns the number of source gates across all blocks.
func GateCount(blocks []Block) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Gates)
	}
	return n
}

// Sweeps returns the number of state-vector sweeps the blocks take (one per
// block), the quantity fusion minimizes.
func Sweeps(blocks []Block) int { return len(blocks) }

func positionOf(qs []int) map[int]int {
	pos := make(map[int]int, len(qs))
	for i, q := range qs {
		pos[q] = i
	}
	return pos
}

func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	for _, q := range b {
		i := sort.SearchInts(out, q)
		if i < len(out) && out[i] == q {
			continue
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = q
	}
	return out
}
