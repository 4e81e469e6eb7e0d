// Package hier implements the paper's hierarchical part-based execution
// model (§III-B/C, Algorithm 1): for each part of an acyclic partitioning,
// the amplitudes addressed by the part's qubits are gathered from the outer
// state vector into a small inner state vector, all of the part's gates are
// applied to the inner vector, and the results are scattered back. The
// paper's second, cache-sized level (§III-C) is the tile blocking of
// sv.State.ApplyOps, which every part's inner vector already runs.
//
// Each part's gates are lowered to kernel ops once per part by fuse.Lower.
// With Options.Fuse set they are coalesced into dense/diagonal fused blocks
// there, so every gather/execute/scatter cycle sweeps the inner vector once
// per block instead of once per gate; otherwise each gate is its own block.
// Independent sweeps of one part are executed in parallel across Workers
// goroutines (they touch disjoint slices of the outer vector); a part with
// fewer sweeps than workers hands the spare workers to its inner states'
// kernels.
//
// Gather and scatter are one run-based routine whose shape is fixed per part
// by where the part's qubits sit (see prepared):
//
//   - view: the part's qubits are exactly 0..w-1, so each sweep's
//     amplitudes are already contiguous and the inner state is a slice of the
//     outer vector. Nothing is copied. A part spanning the whole register is
//     the one-sweep case of this.
//   - runs: the part holds qubits 0..j-1 (0 < j < w), so a sweep is
//     2^(w-j) runs of 2^j contiguous amplitudes, moved with copy().
//   - batched: runs shorter than a 64-byte cache line with free qubits just
//     above them; the 2 or 4 sweeps that share each line are gathered,
//     executed and scattered together, so every line of the outer vector is
//     read and written once per part instead of once per sweep.
//
// The layouts only move data: the ops, their order and every amplitude's
// arithmetic are the same in all three, so results do not depend on them or
// on Workers. Metrics.BytesMoved counts the bytes actually copied — zero for
// a view part.
//
// Execution follows the state's support. A qubit that every nonzero
// amplitude of the input has clear, and that no non-diagonal op has targeted
// since, still reads 0 wherever the state is nonzero. ExecutePlan reads the
// input's clear qubits off its amplitudes (sv.State.ClearQubits);
// ExecutePlanFrom takes them from a caller that knows them, so a state fresh
// from sv.NewState — every qubit clear — is not read at all. A sweep whose
// outer index sets such a qubit holds only zeros and is never run
// (Metrics.SkippedSweeps), and each part's ops are pinned to the support of
// its still-clear slots (sv.PinZero), so their kernels walk only amplitudes
// that can be nonzero: a pinned diagonal walks only its live runs. Skipping
// and pinning change no amplitude's arithmetic.
//
// Gate order decides how much of a part runs on a small support, so a part
// with a clear slot is also lowered in support-first order (supportFirst):
// each qubit's gates keep their sequence, a ready gate that clears no slot
// (diagonal, controlled on a clear slot, or dense on live slots only) runs
// before any that does, and otherwise the ready gate that clears the fewest
// slots runs, lowest circuit index first. The part keeps whichever lowering's
// pinned ops walk fewer amplitudes (sv.Op.Amps), the circuit order on a tie,
// provided it leaves the same slots clear. Both orders apply the same
// unitary, but fusion groups the gates differently, so a reordered part's
// results agree with the circuit order's to rounding, not bit for bit. A
// part with no clear slot runs in circuit order.
package hier

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/par"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Options configures hierarchical execution.
type Options struct {
	// Ctx, when non-nil, is polled before every part and every batch of
	// sweeps within one: a cancelled or timed-out context aborts the run with
	// the context's error. Carried in Options (rather than a parameter) so
	// the ExecutePlan/ExecutePlanFrom call surface stays stable.
	Ctx context.Context
	// Workers bounds kernel and sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Fuse enables gate fusion within each part.
	Fuse bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PartStats records the execution footprint of one part.
type PartStats struct {
	Index  int
	Gates  int
	Qubits int
	Sweeps int64 // gather/scatter iterations run: 2^(n-w) less the skipped ones
	// SkippedSweeps are the sweeps whose outer index sets a qubit still
	// clear at the part's start: they hold only zeros and are not run.
	SkippedSweeps int64
	BytesMoved    int64 // bytes gather and scatter copied; 0 for a view
	Blocks        int   // blocks per sweep: fused blocks, or one per gate with fusion off
}

// Metrics aggregates execution statistics.
type Metrics struct {
	Parts         int
	BytesMoved    int64
	Sweeps        int64
	SkippedSweeps int64
	InnerOps      int64
	PerPart       []PartStats
}

// ExecutePlan runs every part of the plan against the given outer state.
// The state must span the plan's circuit; its support is read off its
// amplitudes (sv.State.ClearQubits), so any state is a valid input.
func ExecutePlan(pl *partition.Plan, outer *sv.State, opts Options) (*Metrics, error) {
	return ExecutePlanFrom(pl, outer, outer.ClearQubits(), opts)
}

// ExecutePlanFrom is ExecutePlan for a caller that knows qubits of the outer
// state to be clear: every qubit in clearBits must read 0 in every nonzero
// amplitude of outer. Any subset of outer.ClearQubits() is valid — all
// qubits for a state fresh from sv.NewState, 0 for any state — and a
// smaller mask only skips and pins less. The state's amplitudes are not read
// to check it.
func ExecutePlanFrom(pl *partition.Plan, outer *sv.State, clearBits int, opts Options) (*Metrics, error) {
	if pl.Circuit.NumQubits > outer.N {
		return nil, fmt.Errorf("hier: circuit needs %d qubits, state has %d", pl.Circuit.NumQubits, outer.N)
	}
	if clearBits < 0 || clearBits>>uint(outer.N) != 0 {
		return nil, fmt.Errorf("hier: clear mask %#x names a qubit outside the %d-qubit state", clearBits, outer.N)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Metrics{Parts: pl.NumParts()}
	for _, part := range pl.Parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pp, err := preparePart(pl.Circuit, part, clearBits, opts)
		if err != nil {
			return nil, fmt.Errorf("hier: part %d: %w", part.Index, err)
		}
		ps, err := executePart(ctx, &pp, outer, opts.workers())
		if err != nil {
			return nil, fmt.Errorf("hier: part %d: %w", part.Index, err)
		}
		m.PerPart = append(m.PerPart, ps)
		m.BytesMoved += ps.BytesMoved
		m.Sweeps += ps.Sweeps
		m.SkippedSweeps += ps.SkippedSweeps
		clearBits = pp.clearAfter
	}
	m.InnerOps = outer.Ops
	return m, nil
}

// lineAmps is how many amplitudes share one 64-byte cache line.
const lineAmps = 4

// prepared is one part's precomputed execution recipe: its gates remapped
// onto inner slots and lowered to kernel ops (one per fused block, or one per
// gate with fusion off) pinned to the support of its clear slots, plus the
// gather/scatter layout and the live sweeps. Preparing once per part keeps
// fusion and gate lowering out of the sweep loop.
//
// The live sweeps are those whose outer index sets no dead qubit — one that
// is clear at the part's start and not the part's own. Live sweep f has the
// base f with a zero inserted at every skip bit (the part's qubits and its
// dead ones), so the loop counts live sweeps only.
//
// The layout follows from how many of the part's qubits are exactly
// 0..j-1: those bits of an inner index are the same bits of the outer
// index, so a sweep's amplitudes lie in runs of 2^j contiguous outer
// amplitudes, one run per assignment of the part's remaining w-j qubits.
//   - j == w: one run is the whole sweep — the inner state is a view of
//     the outer vector and nothing is copied (offs is nil).
//   - 0 < j < w: gather and scatter copy() 2^(w-j) runs.
//   - runs shorter than a cache line (j < 2) with live free qubits right
//     above them: the sweeps that differ only in those free qubits
//     interleave within the same lines, so batch of them are moved together
//     and each line of the outer vector is read and written once.
type prepared struct {
	part       partition.Part
	skip       int     // outer bits every live sweep holds at 0: the part's qubits and its dead ones
	clearAfter int     // the qubits still clear after the part
	run        int     // 2^j: contiguous amplitudes per run
	offs       []int   // outer offset of each run (nil for a view)
	batch      int     // adjacent sweeps moved together (1, 2 or 4)
	order      []int   // the part's circuit gate indices, in the order ops lowers them
	ops        []sv.Op // lowered for w-qubit inner states
	blocks     int     // blocks per sweep (PartStats.Blocks)
}

// isView reports whether sweeps run in place on slices of the outer vector.
func (pp *prepared) isView() bool { return pp.run == 1<<uint(len(pp.part.Qubits)) }

// sweeps is how many live sweeps the part runs on an n-qubit outer state.
func (pp *prepared) sweeps(n int) int { return 1 << uint(n-bits.OnesCount(uint(pp.skip))) }

// preparePart remaps the part's gates onto inner slots and precomputes the
// layout and the kernel ops for a state whose clear qubits are the bits of
// clearBits, in circuit or support-first order, whichever walks fewer
// amplitudes (see the package doc).
func preparePart(c *circuit.Circuit, part partition.Part, clearBits int, opts Options) (prepared, error) {
	w := part.WorkingSetSize()
	pp := prepared{part: part, batch: 1}
	own := 0
	for _, q := range part.Qubits {
		own |= 1 << uint(q)
	}
	dead := clearBits &^ own
	pp.skip, pp.clearAfter = own|dead, dead
	j := 0
	for j < w && part.Qubits[j] == j {
		j++
	}
	pp.run = 1 << uint(j)
	if j < w { // a view copies nothing and needs no offset table

		high := part.Qubits[j:]
		// offs[r] spreads the bits of r onto the high qubits: r's lowest set
		// bit on top of the entry for r without it.
		pp.offs = make([]int, 1<<uint(w-j))
		for r := 1; r < len(pp.offs); r++ {
			low := bits.TrailingZeros(uint(r))
			pp.offs[r] = pp.offs[r&(r-1)] | 1<<uint(high[low])
		}
		// Adjacent live sweeps differ in the free qubits from j up to the
		// first part or dead qubit.
		free := min(high[0], j+bits.TrailingZeros(uint(dead>>uint(j)))) - j
		for ; pp.run*pp.batch < lineAmps && free > 0; free-- {
			pp.batch *= 2
		}
	}

	slots := 0 // the part's clear qubits, as inner slots
	for s, q := range part.Qubits {
		slots |= (clearBits >> uint(q) & 1) << uint(s)
	}
	gates := slotGates(c, part, part.GateIndices)
	blocks, ops, err := fuse.Lower(gates, w, opts.Fuse)
	if err != nil {
		return pp, err
	}
	var after int // the slots still clear after the part
	pp.order, pp.blocks = part.GateIndices, len(blocks)
	pp.ops, after = sv.PinZero(ops, slots)
	if pos := supportFirst(w, gates, slots); pos != nil {
		order, moved := make([]int, len(pos)), make([]gate.Gate, len(pos))
		for i, p := range pos {
			order[i], moved[i] = part.GateIndices[p], gates[p]
		}
		if blocks, ops, err = fuse.Lower(moved, w, opts.Fuse); err != nil {
			return pp, err
		}
		// Fused blocks of the two orders may hold different qubits, so the
		// reordered ops must also leave the same slots clear: then every
		// later part runs as it would after the circuit order.
		if pinned, left := sv.PinZero(ops, slots); left == after && walked(pinned) < walked(pp.ops) {
			pp.order, pp.ops, pp.blocks, after = order, pinned, len(blocks), left
		}
	}
	for s, q := range part.Qubits {
		pp.clearAfter |= (after >> uint(s) & 1) << uint(q)
	}
	return pp, nil
}

// slotGates remaps the gates (circuit indices, in the order given) onto the
// part's inner slots 0..w-1 — the paper's consistent-layout rule: ascending
// global qubit -> ascending slot.
func slotGates(c *circuit.Circuit, part partition.Part, order []int) []gate.Gate {
	slot := make(map[int]int, len(part.Qubits))
	for j, q := range part.Qubits {
		slot[q] = j
	}
	gates := make([]gate.Gate, 0, len(order))
	for _, gi := range order {
		gates = append(gates, c.Gates[gi].Remap(func(q int) int { return slot[q] }))
	}
	return gates
}

// walked is how many amplitudes one replay of the ops walks.
func walked(ops []sv.Op) int64 {
	var a int64
	for i := range ops {
		a += ops[i].Amps()
	}
	return a
}

// clears is the mask of clear qubits gate g takes out of the support: its
// targets, unless it is diagonal or controlled on a clear qubit (then it acts
// only where every amplitude is zero).
func clears(g gate.Gate, clear int) int {
	m := 0
	for _, q := range g.Controls() {
		m |= 1 << uint(q)
	}
	if m&clear != 0 || gate.IsDiagonal(g) {
		return 0
	}
	m = 0
	for _, q := range g.Targets() {
		m |= 1 << uint(q)
	}
	return m & clear
}

// supportFirst returns the positions of gates, a sequence on n qubits, in
// support-first topological order from a state whose clear qubits are the
// bits of clear, or nil when that order is the given one. Each qubit's gates
// keep their sequence. Of the gates ready to run, one that clears no qubit
// runs first; otherwise the one that clears the fewest does, lowest position
// first. So whatever the still-clear qubits allow is finished before the
// support widens.
func supportFirst(n int, gates []gate.Gate, clear int) []int {
	if clear == 0 {
		return nil
	}
	pending := make([][]int, n) // per qubit, the positions of its gates not yet ordered
	for i, g := range gates {
		for _, q := range g.Qubits {
			pending[q] = append(pending[q], i)
		}
	}
	order, moved := make([]int, 0, len(gates)), false
	for len(order) < len(gates) {
		best, bestCleared := -1, 0
		for _, queue := range pending {
			if len(queue) == 0 {
				continue
			}
			i := queue[0]
			ready := true
			for _, q := range gates[i].Qubits {
				ready = ready && pending[q][0] == i
			}
			if !ready {
				continue
			}
			cleared := bits.OnesCount(uint(clears(gates[i], clear)))
			if best < 0 || cleared < bestCleared || cleared == bestCleared && i < best {
				best, bestCleared = i, cleared
			}
		}
		clear &^= clears(gates[best], clear)
		for _, q := range gates[best].Qubits {
			pending[q] = pending[q][1:]
		}
		moved = moved || best != len(order)
		order = append(order, best)
	}
	if !moved {
		return nil
	}
	return order
}

// executePart performs the Gather-Execute-Scatter cycle of Algorithm 1 for
// one prepared part. Its live sweeps touch disjoint slices of the outer
// vector, so up to workers lanes of par.Each claim them a few batches at a
// time — a lane whose CPU is slow or preempted takes fewer, instead of
// holding a fixed half back; workers left over when there are fewer sweeps
// than that go to the inner states' kernels. A part spanning the whole outer
// register is its one sweep, applied in place. ctx is polled once per batch
// of sweeps.
func executePart(ctx context.Context, pp *prepared, outer *sv.State, workers int) (PartStats, error) {
	w := pp.part.WorkingSetSize()
	ps := PartStats{Index: pp.part.Index, Gates: len(pp.part.GateIndices), Qubits: w, Blocks: pp.blocks}
	if w == 0 {
		return ps, nil
	}
	sweeps := pp.sweeps(outer.N)
	ps.Sweeps, ps.SkippedSweeps = int64(sweeps), int64(1)<<uint(outer.N-w)-int64(sweeps)
	batch := pp.batch
	for batch > 1 && sweeps/batch < workers {
		batch /= 2 // never trade sweep-level parallelism for wider batches
	}
	ranges := min(workers, sweeps/batch)
	lanes := make([]sweepLane, ranges)
	var err error
	if ranges == 1 {
		lanes[0].init(pp, batch, workers, outer.Prof)
		err = lanes[0].run(ctx, pp, outer.Amps, 0, sweeps)
	} else {
		// About eight claims per lane: the last one to finish overruns the
		// others by at most an eighth of a share.
		claim := max(1, sweeps/batch/(8*ranges)) * batch
		err = par.Each(ctx, ranges, (sweeps+claim-1)/claim, func(ctx context.Context, lane, k int) error {
			l := &lanes[lane]
			if l.inners == nil {
				l.init(pp, batch, workers/ranges, outer.Prof)
			}
			return l.run(ctx, pp, outer.Amps, k*claim, min((k+1)*claim, sweeps))
		})
	}
	for _, l := range lanes {
		for t := range l.inners {
			outer.Ops += l.inners[t].Ops
		}
		ps.BytesMoved += l.moved
	}
	return ps, err
}

// sweepLane is one lane's scratch: an inner state per sweep of a batch and,
// unless the part is a view, the vectors they run on.
type sweepLane struct {
	inners  []sv.State
	vectors [lineAmps][]complex128 // the inner vectors, as the transfer loops want them
	moved   int64                  // bytes gather and scatter copied
}

// init gives the lane batch inner states, workers kernel goroutines each.
func (l *sweepLane) init(pp *prepared, batch, workers int, rec *prof.Recorder) {
	w := uint(pp.part.WorkingSetSize())
	l.inners = make([]sv.State, batch)
	var buf []complex128 // a view's inner states are slices of the outer vector
	if !pp.isView() {
		buf = make([]complex128, batch<<w)
	}
	for t := range l.inners {
		if buf != nil {
			l.vectors[t] = buf[t<<w : (t+1)<<w]
		}
		l.inners[t] = sv.State{N: int(w), Workers: workers, Prof: rec, Amps: l.vectors[t]}
	}
}

// run gathers, executes and scatters live sweeps [lo, hi), polling ctx
// before each batch.
func (l *sweepLane) run(ctx context.Context, pp *prepared, outer []complex128, lo, hi int) error {
	view, inners, amps := pp.isView(), l.inners, l.vectors[:len(l.inners)]
	for f := lo; f < hi; f += len(inners) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		base := f
		for m := pp.skip; m != 0; m &= m - 1 { // ascending: insert zeros at skip bits
			base = insertBit(base, bits.TrailingZeros(uint(m)))
		}
		if view {
			inners[0].Amps = outer[base : base+pp.run]
		} else {
			l.moved += pp.transfer(outer, base, amps, false)
		}
		for t := range inners {
			inners[t].ApplyOps(pp.ops)
		}
		if !view {
			l.moved += pp.transfer(outer, base, amps, true)
		}
	}
	return nil
}

// transfer is the one gather/scatter routine: it copies len(inners)
// adjacent sweeps — sweep t has base | t*run — between the outer vector and
// their inner vectors, run by run, and returns the bytes copied. With runs of
// one amplitude the batch's amplitudes for an offset are adjacent in the
// outer vector, so a line is consumed whole.
func (pp *prepared) transfer(outer []complex128, base int, inners [][]complex128, scatter bool) int64 {
	run := pp.run
	switch {
	case run == 1 && scatter:
		for r, off := range pp.offs {
			line := outer[base|off:][:len(inners)]
			for t, inner := range inners {
				line[t] = inner[r]
			}
		}
	case run == 1:
		for r, off := range pp.offs {
			line := outer[base|off:][:len(inners)]
			for t, inner := range inners {
				inner[r] = line[t]
			}
		}
	default:
		for r, off := range pp.offs {
			for t, inner := range inners {
				in, out := inner[r*run:][:run], outer[base|off+t*run:][:run]
				if scatter {
					copy(out, in)
				} else {
					copy(in, out)
				}
			}
		}
	}
	return int64(len(inners)) * int64(len(inners[0])) * 16
}

// insertBit returns f with a zero bit inserted at position p.
func insertBit(f, p int) int {
	low := f & ((1 << uint(p)) - 1)
	return ((f &^ ((1 << uint(p)) - 1)) << 1) | low
}
