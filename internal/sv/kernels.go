package sv

import (
	"fmt"
	"math/bits"
	"math/cmplx"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hisvsim/internal/gate"
	"hisvsim/internal/prof"
)

// This file is the one kernel family every state update runs through. An Op
// is a lowered kernel invocation: an index plan built once (fixed bits =
// targets ∪ controls, control mask, bit-insertion masks, scatter offsets, or
// the low-bits table of a diagonal) plus its numeric payload. Executors lower
// their gates and fused blocks to ops once and replay them with
// State.ApplyOps, which walks runs of ops confined below the tile boundary
// tile by tile so a 512 KiB tile stays cache-resident across the run;
// ApplyGate and the raw-matrix entry points lower per call and take the same
// replay routine as a one-op group. Dense ops dispatch on k: k=1 and k=2 hold
// the matrix in locals and walk the free index by whole runs of equally
// spaced groups (contiguous above the lowest fixed bit; adjacent pairs or
// quads when the low bits are the targets), k≥3 gathers into stack scratch
// (heap only above maxStackK).
// Every amplitude's arithmetic expression is fixed by the op alone — never
// by worker count, share or tile boundary, or run length — so results are
// bit-identical across them.

// maxStackK is the widest dense kernel whose gather/result scratch lives on
// the stack (2·2^5 amplitudes = 1 KiB).
const maxStackK = 5

// diagLowBits caps the low-bits table of a diagonal plan at 2^10 entries
// (4 KiB, L1-resident beside the amplitude stream).
const diagLowBits = 10

// plan is the index recipe of one kernel on an n-qubit state. Its tables
// are immutable after construction; copies of a plan (ops are values) share
// them read-only across goroutines and across re-bound payloads (templates).
type plan struct {
	n      int
	qubits []int // targets; qubits[j] is bit j of the matrix / diagonal index
	ctrl   int   // control bits, pinned to 1
	zero   int   // pinned-zero bits: amplitudes that set one are skipped (see PinZero)
	fixed  int   // targets ∪ controls ∪ pinned-zero bits, as a bit mask
	// Dense and swap plans.
	below []int // 2^q − 1 per fixed bit q, ascending: where next inserts a bit
	offs  []int // 2^k target offsets in matrix-index order
	run   int   // free indices per run: consecutive ones address amplitudes step apart
	step  int   // 1, or 2^j when the j lowest bits are all fixed (adjacent groups)
	// Diagonal plans: the state is streamed in 2^lowBits blocks of
	// 2^runBits-amplitude runs that share one diagonal entry; lowTab maps a
	// run's index within its block to the low bits' share of the diagonal
	// index (−1 where a low control bit is clear or a low pinned-zero bit
	// set), the high share is computed once per block.
	lowBits, runBits uint
	lowTab           []int32
}

// newPlan validates the qubit lists (in range, pairwise distinct) and
// builds the tables for a dense (or swap) kernel, or for a diagonal one,
// walking only the amplitudes that hold every bit of zero at 0.
func newPlan(n int, targets, controls []int, diagonal bool, zero int) plan {
	p := plan{n: n, qubits: targets, zero: zero}
	var seen int
	claim := func(q int) {
		if q < 0 || q >= n {
			panic(fmt.Sprintf("sv: qubit %d out of range [0,%d)", q, n))
		}
		if seen>>uint(q)&1 == 1 {
			panic(fmt.Sprintf("sv: qubit %d repeats in targets %v controls %v", q, targets, controls))
		}
		seen |= 1 << uint(q)
	}
	for _, q := range targets {
		claim(q)
	}
	for _, q := range controls {
		claim(q)
		p.ctrl |= 1 << uint(q)
	}
	p.fixed = seen | zero
	if diagonal {
		// Below the lowest qubit the diagonal touches or pins, amplitudes come
		// in runs sharing one entry; runs shorter than four are walked per
		// amplitude.
		p.lowBits = uint(min(n, diagLowBits))
		if r := uint(bits.TrailingZeros(uint(p.fixed))); r >= 2 {
			p.runBits = min(r, p.lowBits)
		}
		var bitOf [diagLowBits]int32 // diagonal-index bit contributed by each run-index bit
		for j, q := range targets {
			if uint(q) < p.lowBits {
				bitOf[uint(q)-p.runBits] = 1 << uint(j)
			}
		}
		lowCtrl := p.ctrl & (1<<p.lowBits - 1) >> p.runBits
		lowZero := zero & (1<<p.lowBits - 1) >> p.runBits
		p.lowTab = make([]int32, 1<<(p.lowBits-p.runBits))
		for i := 1; i < len(p.lowTab); i++ {
			p.lowTab[i] = p.lowTab[i&(i-1)] | bitOf[bits.TrailingZeros(uint(i))]
		}
		for i := range p.lowTab {
			if i&lowCtrl != lowCtrl || i&lowZero != 0 {
				p.lowTab[i] = -1
			}
		}
		return p
	}
	// Bits 0..j-1 are fixed and q is the next fixed bit above them: the free
	// indices below it address amplitudes 2^j apart.
	seen = p.fixed
	j := 0
	for seen>>uint(j)&1 == 1 {
		j++
	}
	q := j
	for q < n && seen>>uint(q)&1 == 0 {
		q++
	}
	p.step, p.run = 1<<uint(j), 1<<uint(q-j)
	nb := bits.OnesCount(uint(seen))
	tables := make([]int, nb+1<<uint(len(targets))) // one allocation: below, then offs
	p.below, p.offs = tables[:0:nb], tables[nb:]
	for q := 0; q < n; q++ {
		if seen>>uint(q)&1 == 1 {
			p.below = append(p.below, 1<<uint(q)-1)
		}
	}
	for s := range p.offs {
		for j, q := range targets {
			p.offs[s] |= (s >> uint(j) & 1) << uint(q)
		}
	}
	return p
}

// next is one step of the free-index walk: from f (below hi) it returns how
// many consecutive free indices share a run — their groups sit p.step
// amplitudes apart — and the amplitude index of the first one's group base:
// f with a zero inserted at every target and pinned-zero bit and a one at
// every control bit.
func (p *plan) next(f, hi int) (r, base int) {
	base = f
	for _, low := range p.below {
		base = base&^low<<1 | base&low
	}
	return min(p.run-f&(p.run-1), hi-f), base | p.ctrl
}

// Op is one lowered kernel invocation: an index plan plus the numeric
// payload (a dense matrix, a diagonal, or neither for a swap) and the
// profile class it reports under. Ops are values; copies share the plan and
// payload read-only, so one lowered op list serves concurrent states.
type Op struct {
	plan  plan
	mat   []complex128 // dense: row-major 2^k×2^k over plan.qubits
	diag  []complex128 // diagonal: 2^k entries over plan.qubits
	kind  prof.Kind
	width int
}

// DenseOp lowers a 2^k×2^k matrix (not necessarily unitary) on the listed
// targets — targets[j] is bit j of the matrix index, in any order — acting
// only where every control bit is 1. kind is the profile class it reports.
func DenseOp(n int, targets, controls []int, m gate.Matrix, kind prof.Kind) Op {
	if m.K != len(targets) || m.K == 0 {
		panic(fmt.Sprintf("sv: %d-qubit matrix lowered onto %d targets", m.K, len(targets)))
	}
	return Op{plan: newPlan(n, targets, controls, false, 0), mat: m.Data, kind: kind, width: m.K}
}

// DiagonalOp lowers a 2^k diagonal over the listed qubits (qubits[j] is bit
// j of the diagonal index).
func DiagonalOp(n int, qubits []int, d []complex128) Op {
	op := Op{plan: newPlan(n, qubits, nil, true, 0), kind: prof.Diagonal, width: len(qubits)}
	return op.WithDiagonal(d)
}

// GateOp lowers one (possibly controlled) gate: phase-only gates to a
// diagonal op, an uncontrolled swap to the exchange kernel, everything else
// to a dense op on the base matrix. Controls stay structural throughout.
func GateOp(n int, g gate.Gate) (Op, error) {
	for _, q := range g.Qubits {
		if q < 0 || q >= n {
			return Op{}, fmt.Errorf("sv: gate %s qubit %d out of range [0,%d)", g.Name, q, n)
		}
	}
	if err := g.Validate(); err != nil {
		return Op{}, fmt.Errorf("sv: %w", err)
	}
	op := Op{kind: prof.Dense, width: len(g.Targets())}
	switch {
	case gate.IsDiagonal(g):
		op.kind = prof.Diagonal
		op.plan = newPlan(n, g.Targets(), g.Controls(), true, 0)
		op.diag = baseDiagonal(g)
	case g.Name == "swap" && g.Ctrl == 0:
		op.plan = newPlan(n, g.Targets(), nil, false, 0)
	default:
		if g.Ctrl > 0 {
			op.kind = prof.Controlled
		}
		op.plan = newPlan(n, g.Targets(), g.Controls(), false, 0)
		op.mat = g.BaseMatrix().Data
	}
	return op, nil
}

// GateOps lowers a gate list for n-qubit states, one op per gate — the
// unfused counterpart of fuse.Plan for executors that replay the same gates
// across many sweeps or trajectories.
func GateOps(n int, gates []gate.Gate) ([]Op, error) {
	ops := make([]Op, len(gates))
	for i, g := range gates {
		var err error
		if ops[i], err = GateOp(n, g); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// PinZero lowers ops onto the support of a state whose clear qubits (the
// bits of clearBits) read 0 in every nonzero amplitude, walking them in order:
// an op controlled on a clear qubit acts only where every amplitude is zero
// and is dropped; a diagonal op skips every amplitude that sets a clear
// qubit, its own included; a dense or swap op skips those that set a clear
// qubit outside its targets and controls, and its targets stop being clear.
// It returns the pinned ops and the qubits still clear after them. A pinned
// op leaves alone only amplitudes that are zero and stay zero, and computes
// every other one as the unpinned op does, so on such a state the pinned ops
// replay == to the originals.
func PinZero(ops []Op, clearBits int) ([]Op, int) {
	if clearBits == 0 {
		return ops, 0
	}
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		p := &op.plan
		if p.ctrl&clearBits != 0 {
			continue
		}
		pin := clearBits
		if op.diag == nil {
			pin &^= p.fixed
			clearBits &^= p.fixed &^ p.ctrl &^ p.zero
		}
		if pin != 0 {
			var controls []int
			for c := p.ctrl; c != 0; c &= c - 1 {
				controls = append(controls, bits.TrailingZeros(uint(c)))
			}
			op.plan = newPlan(p.n, p.qubits, controls, op.diag != nil, p.zero|pin)
		}
		out = append(out, op)
	}
	return out, clearBits
}

// baseDiagonal returns the diagonal of a phase-only gate's base matrix.
func baseDiagonal(g gate.Gate) []complex128 {
	m := g.BaseMatrix()
	d := make([]complex128, m.Dim())
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// WithGate returns the op with its payload recomputed from g, which must
// have the structure (name, qubits) of the gate the op was lowered from —
// the re-binding step of a parameterized template.
func (op Op) WithGate(g gate.Gate) Op {
	if op.diag != nil {
		op.diag = baseDiagonal(g)
	} else if op.mat != nil {
		op.mat = g.BaseMatrix().Data
	}
	return op
}

// WithMatrix returns the dense op re-bound to another matrix of its width.
func (op Op) WithMatrix(m gate.Matrix) Op {
	if len(m.Data) != len(op.plan.offs)*len(op.plan.offs) {
		panic(fmt.Sprintf("sv: %d-qubit matrix bound to a %d-target op", m.K, len(op.plan.qubits)))
	}
	op.mat = m.Data
	return op
}

// WithDiagonal returns the diagonal op re-bound to another diagonal.
func (op Op) WithDiagonal(d []complex128) Op {
	if len(d) != 1<<uint(len(op.plan.qubits)) {
		panic(fmt.Sprintf("sv: diagonal has %d entries for %d qubits", len(d), len(op.plan.qubits)))
	}
	op.diag = d
	return op
}

// Conj returns the op with a complex-conjugated payload (the bra-side
// application of the density-matrix engine).
func (op Op) Conj() Op {
	conj := func(v []complex128) []complex128 {
		if v == nil {
			return nil
		}
		out := make([]complex128, len(v))
		for i, c := range v {
			out[i] = cmplx.Conj(c)
		}
		return out
	}
	op.mat, op.diag = conj(op.mat), conj(op.diag)
	return op
}

// TableBytes estimates the resident size of the op's index tables.
func (op Op) TableBytes() int64 {
	return int64(8*(len(op.plan.below)+len(op.plan.offs)) + 4*len(op.plan.lowTab))
}

// items is the op's sweep length: 2^lowBits blocks for a diagonal, free
// indices (one group of 2^k amplitudes each) otherwise.
func (op *Op) items() int {
	p := &op.plan
	if p.lowTab != nil {
		return 1 << (uint(p.n) - p.lowBits)
	}
	return 1 << uint(p.n-bits.OnesCount(uint(p.fixed)))
}

// sweep runs the op's kernel over items [lo, hi).
func (op *Op) sweep(amps []complex128, lo, hi int) {
	switch p := &op.plan; {
	case op.diag != nil:
		p.diagonal(amps, op.diag, lo, hi)
	case op.mat == nil:
		p.swap(amps, lo, hi)
	case len(op.mat) == 4:
		p.dense1(amps, op.mat, lo, hi)
	case len(op.mat) == 16:
		p.dense2(amps, op.mat, lo, hi)
	default:
		p.denseK(amps, op.mat, lo, hi, false)
	}
}

// shares is how many worker shares a whole-state sweep of n items splits
// into: one when the sweep runs serially (one worker, or a state too small
// to pay for goroutines).
func (s *State) shares(n int) int {
	if len(s.Amps) < parallelThreshold {
		return 1
	}
	return min(s.workers(), n)
}

// ScratchAllocs reports what one Apply of op heap-allocates on this state
// for gather scratch — one buffer per share above maxStackK targets, nothing
// otherwise — the figure the kernels report to the profile. Engines that
// re-attribute kernel calls at their own layer (dm) reuse it.
func (s *State) ScratchAllocs(op *Op) int64 {
	return op.scratchAllocs(s.shares(op.items()))
}

// scratchAllocs is the gather scratch a replay of the op in the given number
// of sweep calls heap-allocates.
func (op *Op) scratchAllocs(sweeps int) int64 {
	if len(op.plan.qubits) > maxStackK && op.mat != nil {
		return int64(sweeps)
	}
	return 0
}

func (s *State) checkOp(op *Op) {
	if op.plan.n != s.N {
		panic(fmt.Sprintf("sv: op lowered for %d qubits applied to a %d-qubit state", op.plan.n, s.N))
	}
}

// tileBits sizes the tile of the blocked replay: 2^15 amplitudes, 512 KiB —
// a quarter of this class of machine's per-core L2, so a tile stays resident
// while a whole run of ops passes over it.
const tileBits = 15

// tiles is how many tiles a tiled op group of this state is replayed in, or
// 1 when the state is too small to block: under four tiles it is L2-sized
// already, and under two tiles per worker the shared counter cannot balance
// the workers.
func (s *State) tiles() int {
	t := len(s.Amps) >> tileBits
	if t < 4 || t < 2*s.shares(t) {
		return 1
	}
	return t
}

// tileable reports whether the op's items split by tile: item range
// [t·items/tiles, (t+1)·items/tiles) touches tile t and nothing else. A
// dense or swap op does when every fixed bit lies below the tile boundary
// (the high bits of the free index are then the tile number); a diagonal op
// always does — it streams 2^lowBits-amplitude blocks in address order.
func (op *Op) tileable() bool {
	return op.diag != nil || op.plan.fixed>>tileBits == 0
}

// Apply runs one lowered op against the state, split across the state's
// workers, and counts it in Ops. The serial path allocates nothing.
func (s *State) Apply(op *Op) {
	one := [1]Op{*op}
	s.replay(one[:], s.shares(op.items()))
}

// ApplyOps runs the lowered ops in order. Consecutive tileable ops form a
// group that is replayed tile by tile — every op of the group on one
// cache-resident tile before the next tile is touched, one barrier per group
// — and every other op is a group of its own over the whole state. Each
// amplitude's arithmetic is the op's alone, so the result is == whatever the
// grouping.
func (s *State) ApplyOps(ops []Op) {
	tiles := s.tiles()
	for len(ops) > 0 {
		n, parts := 1, s.shares(ops[0].items())
		if tiles > 1 && ops[0].tileable() {
			for n < len(ops) && ops[n].tileable() {
				n++
			}
			parts = tiles
		}
		s.replay(ops[:n], parts)
		ops = ops[n:]
	}
}

// replay is the one replay routine: it applies a group of ops part by part,
// part t of an op being its items [t·items/parts, (t+1)·items/parts) — a
// tile of a tiled group, a worker's share of a whole-state op. Workers claim
// parts from a shared counter and meet at one barrier. With a profile
// attached every op's sweep of every part is timed; the op reports the sum
// divided by the workers that ran, its share of the group's wall time.
func (s *State) replay(ops []Op, parts int) {
	for i := range ops {
		s.checkOp(&ops[i])
	}
	s.Ops += int64(len(ops))
	var nanos []atomic.Int64
	if s.Prof != nil {
		nanos = make([]atomic.Int64, len(ops))
	}
	workers := s.shares(parts)
	if workers == 1 {
		for t := 0; t < parts; t++ {
			sweepPart(s.Amps, ops, t, parts, nanos)
		}
	} else {
		// The workers get their own copy of the group, so a caller's
		// stack-held op (Apply) stays off the heap on the serial path.
		amps, ops, nanos := s.Amps, slices.Clone(ops), nanos
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := int(next.Add(1)) - 1; t < parts; t = int(next.Add(1)) - 1 {
					sweepPart(amps, ops, t, parts, nanos)
				}
			}()
		}
		wg.Wait()
	}
	for i := range nanos {
		op := &ops[i]
		touched := int64(len(s.Amps)) >> bits.OnesCount(uint(op.plan.zero))
		if op.mat == nil && op.diag == nil {
			touched /= 2 // a swap moves only the two mixed-bit quarters
		}
		s.Prof.Record(op.kind, op.width, time.Duration(nanos[i].Load()/int64(workers)),
			touched, touched*bytesPerAmpRW, op.scratchAllocs(parts))
	}
}

// sweepPart runs part t of parts of every op of the group, in order, adding
// each op's sweep time to its nanos cell when the replay is profiled.
func sweepPart(amps []complex128, ops []Op, t, parts int, nanos []atomic.Int64) {
	var t0 time.Time
	if nanos != nil {
		t0 = time.Now()
	}
	for i := range ops {
		op := &ops[i]
		n := op.items()
		op.sweep(amps, t*n/parts, (t+1)*n/parts)
		if nanos != nil {
			t1 := time.Now()
			nanos[i].Add(int64(t1.Sub(t0)))
			t0 = t1
		}
	}
}

// ApplyGate applies one (possibly controlled) gate to the state. It lowers
// the gate to a kernel op (GateOp: diagonal phase sweep, swap exchange, or
// the dense kernel with structural controls) and runs it; executors that
// replay the same gates many times lower once and call Apply instead.
func (s *State) ApplyGate(g gate.Gate) error {
	op, err := GateOp(s.N, g)
	if err != nil {
		return err
	}
	s.Apply(&op)
	return nil
}

// Norm2 returns ‖Mψ‖² for a dense op's matrix without mutating the state —
// the branch probability of a Kraus operator in a trajectory unraveling. It
// is the read-only form of the dense kernel; the parallel reduction sums
// per-share partials in share order, so it is bit-identical for a given
// worker count.
func (s *State) Norm2(op *Op) float64 {
	s.checkOp(op)
	if op.mat == nil {
		panic("sv: Norm2 needs a dense op")
	}
	t0 := s.profStart()
	n := op.items()
	shares := s.shares(n)
	var total float64
	if shares == 1 {
		total = op.plan.denseK(s.Amps, op.mat, 0, n, true)
	} else {
		partial := make([]float64, shares)
		var wg sync.WaitGroup
		for i := range partial {
			wg.Add(1)
			go func(op Op, amps []complex128, i int) {
				defer wg.Done()
				partial[i] = op.plan.denseK(amps, op.mat, i*n/shares, (i+1)*n/shares, true)
			}(*op, s.Amps, i)
		}
		wg.Wait()
		for _, p := range partial {
			total += p
		}
	}
	allocs := s.ScratchAllocs(op)
	if shares > 1 {
		allocs++ // the partial-sum slice
	}
	s.profRecord(prof.Kraus, op.width, t0, int64(len(s.Amps)), int64(len(s.Amps))*bytesPerAmpRead, allocs)
	return total
}

// dense1 is the k=1 fast path: the 2×2 matrix lives in locals and the free
// index advances by whole contiguous runs. Two matrix shapes take half the
// arithmetic of a complex multiply-add pair: all-real (H, X, RY and every
// controlled-X) and axis-aligned — real diagonal, imaginary off-diagonal (RX,
// Y, CRX). The branch is read off the payload, so a re-bound template picks
// it per binding.
func (p *plan) dense1(amps, m []complex128, lo, hi int) {
	m00, m01, m10, m11 := m[0], m[1], m[2], m[3]
	t := p.offs[1]
	if imag(m00) == 0 && imag(m01) == 0 && imag(m10) == 0 && imag(m11) == 0 {
		r00, r01, r10, r11 := real(m00), real(m01), real(m10), real(m11)
		for f := lo; f < hi; {
			r, b := p.next(f, hi)
			for i := b; i < b+r*p.step; i += p.step {
				x, y := amps[i], amps[i+t]
				amps[i] = complex(r00*real(x)+r01*real(y), r00*imag(x)+r01*imag(y))
				amps[i+t] = complex(r10*real(x)+r11*real(y), r10*imag(x)+r11*imag(y))
			}
			f += r
		}
		return
	}
	if imag(m00) == 0 && real(m01) == 0 && real(m10) == 0 && imag(m11) == 0 {
		r00, i01, i10, r11 := real(m00), imag(m01), imag(m10), real(m11)
		for f := lo; f < hi; {
			r, b := p.next(f, hi)
			for i := b; i < b+r*p.step; i += p.step {
				x, y := amps[i], amps[i+t]
				amps[i] = complex(r00*real(x)-i01*imag(y), r00*imag(x)+i01*real(y))
				amps[i+t] = complex(r11*real(y)-i10*imag(x), r11*imag(y)+i10*real(x))
			}
			f += r
		}
		return
	}
	for f := lo; f < hi; {
		r, b := p.next(f, hi)
		for i := b; i < b+r*p.step; i += p.step {
			x, y := amps[i], amps[i+t]
			amps[i], amps[i+t] = m00*x+m01*y, m10*x+m11*y
		}
		f += r
	}
}

// dense2 is the k=2 fast path: four operand streams per run.
func (p *plan) dense2(amps, m []complex128, lo, hi int) {
	var mm [16]complex128
	copy(mm[:], m)
	o1, o2, o3 := p.offs[1], p.offs[2], p.offs[3]
	for f := lo; f < hi; {
		r, b := p.next(f, hi)
		for i := b; i < b+r*p.step; i += p.step {
			x0, x1, x2, x3 := amps[i], amps[i+o1], amps[i+o2], amps[i+o3]
			amps[i] = mm[0]*x0 + mm[1]*x1 + mm[2]*x2 + mm[3]*x3
			amps[i+o1] = mm[4]*x0 + mm[5]*x1 + mm[6]*x2 + mm[7]*x3
			amps[i+o2] = mm[8]*x0 + mm[9]*x1 + mm[10]*x2 + mm[11]*x3
			amps[i+o3] = mm[12]*x0 + mm[13]*x1 + mm[14]*x2 + mm[15]*x3
		}
		f += r
	}
}

// denseK is the general dense kernel — the one gather → mat-vec → scatter
// loop nest: for every free index it gathers the 2^k amplitudes addressed
// by the target bits, multiplies by the matrix and scatters back. With norm
// set it accumulates ‖row result‖² instead of scattering (the read-only
// Kraus reduction) and returns the sum.
func (p *plan) denseK(amps, m []complex128, lo, hi int, norm bool) float64 {
	offs := p.offs
	dim := len(offs)
	var stack [2 << maxStackK]complex128
	buf := stack[:]
	if 2*dim > len(buf) {
		buf = make([]complex128, 2*dim)
	}
	sub, res := buf[:dim], buf[dim:2*dim]
	sum := 0.0
	for f := lo; f < hi; f++ {
		_, b := p.next(f, hi)
		for i, o := range offs {
			sub[i] = amps[b+o]
		}
		for r := 0; r < dim; r += 2 { // two rows at a time: independent accumulator chains
			row0, row1 := m[r*dim:(r+1)*dim], m[(r+1)*dim:(r+2)*dim]
			var acc0, acc1 complex128
			for c, x := range sub {
				acc0 += row0[c] * x
				acc1 += row1[c] * x
			}
			res[r], res[r+1] = acc0, acc1
		}
		if norm {
			for _, v := range res {
				sum += real(v)*real(v) + imag(v)*imag(v)
			}
			continue
		}
		for i, o := range offs {
			amps[b+o] = res[i]
		}
	}
	return sum
}

// swap exchanges the amplitudes of |…1_a…0_b…⟩ and |…0_a…1_b…⟩ run by run —
// no arithmetic, and only half the state moves.
func (p *plan) swap(amps []complex128, lo, hi int) {
	for f := lo; f < hi; {
		r, b := p.next(f, hi)
		for i, j := b+p.offs[1], b+p.offs[2]; i < b+p.offs[1]+r*p.step; i, j = i+p.step, j+p.step {
			amps[i], amps[j] = amps[j], amps[i]
		}
		f += r
	}
}

// diagonal is the streaming phase sweep over blocks [lo, hi) of 2^lowBits
// amplitudes: amps[i] *= d[high(i) | lowTab[run of i in its block]], with the high
// share of the diagonal index (and the high control and pinned-zero bits)
// resolved once per block.
func (p *plan) diagonal(amps, d []complex128, lo, hi int) {
	hiCtrl, hiZero := p.ctrl&^(1<<p.lowBits-1), p.zero&^(1<<p.lowBits-1)
	for blk := lo; blk < hi; blk++ {
		start := blk << p.lowBits
		if start&hiCtrl != hiCtrl || start&hiZero != 0 {
			continue
		}
		h := 0
		for j, q := range p.qubits {
			if uint(q) >= p.lowBits {
				h |= (start >> uint(q) & 1) << uint(j)
			}
		}
		dd := d[h:]
		if p.runBits == 0 {
			a := amps[start : start+len(p.lowTab)]
			for i, t := range p.lowTab {
				if t >= 0 {
					a[i] *= dd[t]
				}
			}
			continue
		}
		for r, t := range p.lowTab {
			if t >= 0 {
				c := dd[t]
				run := amps[start+r<<p.runBits : start+(r+1)<<p.runBits]
				for i := range run {
					run[i] *= c
				}
			}
		}
	}
}
