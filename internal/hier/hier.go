// Package hier implements the paper's hierarchical part-based execution
// model (§III-B/C, Algorithm 1): for each part of an acyclic partitioning,
// the amplitudes addressed by the part's qubits are gathered from the outer
// state vector into a small inner state vector, all of the part's gates are
// applied to the inner vector, and the results are scattered back. With a
// second-level limit set, each part is recursively partitioned so the
// innermost vectors stay cache-resident (the paper's multi-level HiSVSIM).
//
// With Options.Fuse set, each part's gates are additionally coalesced into
// dense/diagonal fused blocks (see internal/fuse) once per part, so every
// gather/execute/scatter cycle sweeps the inner vector once per block
// instead of once per gate. Independent sweeps of one part are executed in
// parallel across Workers goroutines (they touch disjoint slices of the
// outer vector); a part with fewer sweeps than workers hands the spare
// workers to its inner states' kernels.
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
// amplitude of the input has clear (sv.State.ClearQubits), and that no
// non-diagonal op has targeted since, still reads 0 wherever the state is
// nonzero. A sweep whose outer index sets such a qubit holds only zeros and
// is never run (Metrics.SkippedSweeps), and each part's ops are pinned to
// the support of its still-clear slots (sv.PinZero), so their kernels walk
// only amplitudes that can be nonzero. Every amplitude that is computed gets
// the arithmetic it gets without this, so results are == either way.
package hier

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Options configures hierarchical execution.
type Options struct {
	// Ctx, when non-nil, is polled before every part and every batch of
	// sweeps within one: a cancelled or timed-out context aborts the run with
	// the context's error. Carried in Options (rather than a parameter) so
	// the existing ExecutePlan/Run call surface stays stable.
	Ctx context.Context
	// SecondLevelLm, when > 0, re-partitions each part's gates with this
	// tighter working-set limit and executes them through a second
	// gather/execute/scatter level (multi-level HiSVSIM). The second level
	// uses the same strategy kind as the plan when possible.
	SecondLevelLm int
	// SecondLevel is the partitioner used for the second level; nil selects
	// partition.Nat{} (cheap, and inner circuits are small).
	SecondLevel partition.Strategy
	// Workers bounds kernel and sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Fuse enables gate fusion within each part (and each second-level
	// sub-part).
	Fuse bool
	// MaxFuseQubits caps fused-block support (0 = fuse default).
	MaxFuseQubits int
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
	BytesMoved    int64 // bytes gather and scatter copied, nested levels included; 0 for a view
	SubParts      int   // second-level part count (1 when single-level)
	Blocks        int   // fused blocks per sweep (0 when fusion off or multi-level)
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
// amplitudes, so any state is a valid input.
func ExecutePlan(pl *partition.Plan, outer *sv.State, opts Options) (*Metrics, error) {
	if pl.Circuit.NumQubits > outer.N {
		return nil, fmt.Errorf("hier: circuit needs %d qubits, state has %d", pl.Circuit.NumQubits, outer.N)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Metrics{Parts: pl.NumParts()}
	clearBits := outer.ClearQubits()
	for _, part := range pl.Parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pp, err := preparePart(pl.Circuit, part, clearBits, opts)
		if err != nil {
			return nil, fmt.Errorf("hier: part %d: %w", part.Index, err)
		}
		ps, err := executePart(ctx, pp, outer, opts.workers())
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

// Run partitions the circuit with the strategy and executes it from |0…0⟩.
func Run(c *circuit.Circuit, lm int, s partition.Strategy, opts Options) (*sv.State, *Metrics, error) {
	pl, err := s.Partition(dag.FromCircuit(c), lm)
	if err != nil {
		return nil, nil, err
	}
	outer := sv.NewState(c.NumQubits)
	outer.Workers = opts.Workers
	outer.Prof = prof.FromContext(opts.Ctx)
	m, err := ExecutePlan(pl, outer, opts)
	if err != nil {
		return nil, nil, err
	}
	return outer, m, nil
}

// lineAmps is how many amplitudes share one 64-byte cache line.
const lineAmps = 4

// prepared is one part's precomputed execution recipe: its gates remapped
// onto inner slots and lowered to kernel ops (one per fused block, or one per
// gate with fusion off) pinned to the support of its clear slots, or the
// prepared second-level sub-parts, plus the gather/scatter layout and the
// live sweeps. Preparing once per part keeps fusion, gate lowering and
// second-level partitioning out of the sweep loop.
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
	skip       int        // outer bits every live sweep holds at 0: the part's qubits and its dead ones
	clearAfter int        // the qubits still clear after the part
	run        int        // 2^j: contiguous amplitudes per run
	offs       []int      // outer offset of each run (nil for a view)
	batch      int        // adjacent sweeps moved together (1, 2 or 4)
	ops        []sv.Op    // lowered for w-qubit inner states (nil when multi-level)
	blocks     int        // fused blocks per sweep (0 when fusion off or multi-level)
	sub        []prepared // second-level prepared parts
}

// isView reports whether sweeps run in place on slices of the outer vector.
func (pp *prepared) isView() bool { return pp.run == 1<<uint(len(pp.part.Qubits)) }

// sweeps is how many live sweeps the part runs on an n-qubit outer state.
func (pp *prepared) sweeps(n int) int { return 1 << uint(n-bits.OnesCount(uint(pp.skip))) }

// preparePart remaps the part's gates onto inner slots and precomputes the
// layout and the kernel ops or the second-level plan for a state whose
// clear qubits are the bits of clearBits.
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

	// Remap the part's gates onto inner qubit slots 0..w-1 (the paper's
	// consistent-layout rule: ascending global qubit -> ascending slot).
	slot := make(map[int]int, w)
	for j, q := range part.Qubits {
		slot[q] = j
	}
	gates := make([]gate.Gate, 0, len(part.GateIndices))
	for _, gi := range part.GateIndices {
		gates = append(gates, c.Gates[gi].Remap(func(q int) int { return slot[q] }))
	}

	if opts.SecondLevelLm > 0 && opts.SecondLevelLm < w {
		sub := circuit.New(fmt.Sprintf("%s_part%d", c.Name, part.Index), w)
		sub.Gates = gates
		strat := opts.SecondLevel
		if strat == nil {
			strat = partition.Nat{}
		}
		pl2, err := strat.Partition(dag.FromCircuit(sub), opts.SecondLevelLm)
		if err != nil {
			return pp, fmt.Errorf("second-level partition: %w", err)
		}
		subOpts := opts
		subOpts.SecondLevelLm = 0
		for _, p2 := range pl2.Parts { // sub-parts run unpinned
			sp, err := preparePart(sub, p2, 0, subOpts)
			if err != nil {
				return pp, err
			}
			pp.sub = append(pp.sub, sp)
		}
		return pp, nil
	}
	var ops []sv.Op
	var err error
	if !opts.Fuse {
		ops, err = sv.GateOps(w, gates)
	} else {
		var blocks []fuse.Block
		if blocks, err = fuse.Fuse(gates, fuse.Options{MaxQubits: opts.MaxFuseQubits}); err == nil {
			pp.blocks = len(blocks)
			ops, err = fuse.Plan(blocks, w)
		}
	}
	if err != nil {
		return pp, err
	}
	slots := 0 // the part's clear qubits, as inner slots
	for s, q := range part.Qubits {
		slots |= (clearBits >> uint(q) & 1) << uint(s)
	}
	pp.ops, slots = sv.PinZero(ops, slots)
	for s, q := range part.Qubits {
		pp.clearAfter |= (slots >> uint(s) & 1) << uint(q)
	}
	return pp, nil
}

// applyPrepared runs one prepared part's compute against an inner state
// whose qubits are the part's slots and returns the bytes its second-level
// sweeps copied. workers bounds sub-part sweep parallelism.
func applyPrepared(ctx context.Context, pp *prepared, inner *sv.State, workers int) (int64, error) {
	if pp.sub == nil {
		inner.ApplyOps(pp.ops)
		return 0, nil
	}
	var moved int64
	for i := range pp.sub {
		b, err := executeSweeps(ctx, &pp.sub[i], inner, workers)
		moved += b
		if err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// executePart performs the Gather-Execute-Scatter cycle of Algorithm 1 for
// one prepared part.
func executePart(ctx context.Context, pp prepared, outer *sv.State, workers int) (PartStats, error) {
	part := pp.part
	w := part.WorkingSetSize()
	ps := PartStats{Index: part.Index, Gates: len(part.GateIndices), Qubits: w,
		SubParts: 1, Blocks: pp.blocks}
	if pp.sub != nil {
		ps.SubParts = len(pp.sub)
	}
	if w == 0 {
		return ps, nil
	}
	ps.Sweeps = int64(pp.sweeps(outer.N))
	ps.SkippedSweeps = int64(1)<<uint(outer.N-w) - ps.Sweeps
	var err error
	ps.BytesMoved, err = executeSweeps(ctx, &pp, outer, workers)
	return ps, err
}

// executeSweeps runs the live gather/execute/scatter iterations of one
// prepared part against the outer state and returns the bytes it copied
// (here and in nested levels). Independent sweeps touch disjoint slices of
// the outer vector, so up to workers goroutines claim them a few batches at
// a time from a shared counter — a goroutine whose CPU is slow or preempted
// takes fewer, instead of holding a fixed half back; workers left over when
// there are fewer sweeps than that go to the inner states' kernels. A part
// spanning the whole outer register is its one sweep, applied in place. ctx
// is polled once per batch of sweeps.
func executeSweeps(ctx context.Context, pp *prepared, outer *sv.State, workers int) (int64, error) {
	w := pp.part.WorkingSetSize()
	sweeps := pp.sweeps(outer.N)
	batch := pp.batch
	for batch > 1 && sweeps/batch < workers {
		batch /= 2 // never trade sweep-level parallelism for wider batches
	}
	ranges := min(workers, sweeps/batch)
	innerWorkers := workers / ranges
	// About eight claims per goroutine: the last one to finish overruns the
	// others by at most an eighth of a share.
	claim := max(1, sweeps/batch/(8*ranges)) * batch
	var next atomic.Int64

	work := func() (ops, moved int64, err error) {
		inners := make([]sv.State, batch)
		for t := range inners {
			inners[t] = sv.State{N: w, Workers: innerWorkers, Prof: outer.Prof}
		}
		view := pp.isView()
		var vectors [lineAmps][]complex128
		amps := vectors[:batch] // the inner vectors, as the transfer loops want them
		if !view {
			buf := make([]complex128, batch<<uint(w))
			for t := range inners {
				amps[t] = buf[t<<uint(w) : (t+1)<<uint(w)]
				inners[t].Amps = amps[t]
			}
		}
	sweeping:
		for {
			lo := int(next.Add(int64(claim))) - claim
			if lo >= sweeps {
				break
			}
			for f := lo; f < min(lo+claim, sweeps); f += batch {
				select {
				case <-ctx.Done():
					err = ctx.Err()
					break sweeping
				default:
				}
				base := f
				for m := pp.skip; m != 0; m &= m - 1 { // ascending: insert zeros at skip bits
					base = insertBit(base, bits.TrailingZeros(uint(m)))
				}
				if view {
					inners[0].Amps = outer.Amps[base : base+pp.run]
				} else {
					moved += pp.transfer(outer.Amps, base, amps, false)
				}
				for t := range inners {
					var nested int64
					nested, err = applyPrepared(ctx, pp, &inners[t], innerWorkers)
					moved += nested
					if err != nil {
						break sweeping
					}
				}
				if !view {
					moved += pp.transfer(outer.Amps, base, amps, true)
				}
			}
		}
		for t := range inners {
			ops += inners[t].Ops
		}
		return ops, moved, err
	}

	if ranges == 1 {
		ops, moved, err := work()
		outer.Ops += ops
		return moved, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total int64
	var firstErr error
	for g := 0; g < ranges; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops, moved, err := work()
			mu.Lock()
			outer.Ops += ops
			total += moved
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, firstErr
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
