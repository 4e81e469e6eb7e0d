// Package dist implements the paper's distributed HiSVSIM executor (§III-D):
// the 2^n-amplitude state is sharded over 2^p simulated MPI ranks, each
// holding a 2^l slab (l = n − p). Instead of the baseline's per-gate slab
// exchange, the executor performs at most one collective relayout per part:
// the layout (a qubit→position permutation) is rotated so every qubit of the
// part's working set occupies a local position, after which the whole part —
// fused into dense/diagonal blocks between these communication points —
// executes communication-free on each rank's slab.
package dist

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/mpi"
	"hisvsim/internal/partition"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// Config describes a distributed run.
type Config struct {
	// Ctx, when non-nil, is polled at step boundaries: a cancelled or
	// timed-out context aborts the run with the context's error. The
	// abort step is latched so every simulated rank leaves at the same
	// boundary (no rank abandons a peer mid-collective).
	Ctx context.Context
	// Ranks is the physical node count (≥ 1). Non-powers-of-two use the
	// paper's footnote-2 relaxation: the state shards over the next power
	// of two of virtual ranks, mapped round-robin onto the physical nodes;
	// co-located transfers are metered as free.
	Ranks int
	// Model is the communication cost model (default mpi.HDR100()).
	Model mpi.CostModel
	// Workers bounds per-rank kernel parallelism.
	Workers int
	// GatherResult collects the full state at rank 0.
	GatherResult bool
}

// Result of a distributed run.
type Result struct {
	Stats        []mpi.Stats
	State        *sv.State // full state (nil unless GatherResult)
	BytesComm    int64     // total bytes sent across physical nodes
	Relayouts    int       // collective relayouts performed (excludes the final un-permute)
	VirtualRanks int       // power-of-two rank count the state is sharded over
}

// step is the precomputed per-part execution schedule, identical on every
// rank: an optional relayout followed by local block application. Shared
// read-only across rank goroutines.
type step struct {
	oldPos, newPos []int   // non-nil when this part needs a relayout
	ops            []sv.Op // the part's gates fused and lowered for the l-qubit slab
}

// Run executes the plan over simulated MPI ranks.
func Run(pl *partition.Plan, cfg Config) (*Result, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("dist: ranks must be ≥ 1, got %d", cfg.Ranks)
	}
	vranks := nextPow2(cfg.Ranks)
	n := pl.Circuit.NumQubits
	p := bits.TrailingZeros(uint(vranks))
	l := n - p
	if l < 1 {
		return nil, fmt.Errorf("dist: %d ranks leave no local qubits for %d-qubit circuit", cfg.Ranks, n)
	}
	for _, part := range pl.Parts {
		if part.WorkingSetSize() > l {
			return nil, fmt.Errorf("dist: part %d working set %d exceeds %d local qubits; partition with Lm ≤ %d",
				part.Index, part.WorkingSetSize(), l, l)
		}
	}
	model := cfg.Model
	if model == (mpi.CostModel{}) {
		model = mpi.HDR100()
	}

	steps, finalPos, relayouts, err := schedule(pl, l)
	if err != nil {
		return nil, err
	}

	realOf := make([]int, vranks)
	for v := range realOf {
		realOf[v] = v % cfg.Ranks
	}
	res := &Result{Relayouts: relayouts, VirtualRanks: vranks}
	gathered := make([][]complex128, vranks)
	// stepGate latches one go/abort decision per step: the FIRST rank to
	// reach a step boundary polls the context and publishes the verdict,
	// and every other rank follows it. Per-rank polling would let one rank
	// abort while a peer is already blocked inside the same step's
	// collective exchange, stranding it until the mpi recv timeout.
	var stepGate []atomic.Int32 // 0 undecided, 1 go, 2 abort
	if cfg.Ctx != nil {
		stepGate = make([]atomic.Int32, len(steps))
	}
	recorder := prof.FromContext(cfg.Ctx)
	stats, err := mpi.RunMapped(vranks, realOf, model, func(cm *mpi.Comm) error {
		local := make([]complex128, 1<<uint(l))
		if cm.Rank() == 0 {
			local[0] = 1
		}
		for si := range steps {
			if stepGate != nil {
				gate := stepGate[si].Load()
				if gate == 0 {
					verdict := int32(1)
					if cfg.Ctx.Err() != nil {
						verdict = 2
					}
					if !stepGate[si].CompareAndSwap(0, verdict) {
						gate = stepGate[si].Load()
					} else {
						gate = verdict
					}
				}
				if gate == 2 {
					if err := cfg.Ctx.Err(); err != nil {
						return err
					}
					return context.Canceled
				}
			}
			st := &steps[si]
			if st.newPos != nil {
				local = relayout(cm, local, st.oldPos, st.newPos, l, 2+si)
			}
			slab := sv.NewStateRaw(local)
			slab.Workers = cfg.Workers
			slab.Prof = recorder
			t0 := time.Now()
			slab.ApplyOps(st.ops)
			cm.RecordCompute(time.Since(t0).Seconds())
		}
		if !identityLayout(finalPos) {
			local = relayout(cm, local, finalPos, identityPos(n), l, 2+len(steps))
		}
		if cfg.GatherResult {
			out := cm.Gather(0, 1<<20, local)
			if cm.Rank() == 0 {
				copy(gathered, out)
			}
		}
		return nil
	})
	res.Stats = stats
	if err != nil {
		return res, err
	}
	res.BytesComm = mpi.TotalBytes(stats)
	if cfg.GatherResult {
		amps := make([]complex128, 1<<uint(n))
		for r := 0; r < vranks; r++ {
			copy(amps[r<<uint(l):], gathered[r])
		}
		res.State = sv.NewStateRaw(amps)
	}
	return res, nil
}

// nextPow2 returns the smallest power of two ≥ x.
func nextPow2(x int) int {
	p := 1
	for p < x {
		p <<= 1
	}
	return p
}

// RunCircuit partitions the circuit with the strategy (working-set limit =
// local qubit count) and executes it distributed with gathering enabled.
func RunCircuit(c *circuit.Circuit, s partition.Strategy, cfg Config) (*Result, *partition.Plan, error) {
	if cfg.Ranks < 1 {
		return nil, nil, fmt.Errorf("dist: ranks must be ≥ 1, got %d", cfg.Ranks)
	}
	l := c.NumQubits - bits.TrailingZeros(uint(nextPow2(cfg.Ranks)))
	if l < 1 {
		return nil, nil, fmt.Errorf("dist: %d ranks leave no local qubits for %d-qubit circuit", cfg.Ranks, c.NumQubits)
	}
	pl, err := s.Partition(dag.FromCircuit(c), l)
	if err != nil {
		return nil, nil, err
	}
	cfg.GatherResult = true
	res, err := Run(pl, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, pl, nil
}

// schedule precomputes the deterministic per-part schedule shared by every
// rank: layout evolution, gate remapping onto positions, and fusion.
func schedule(pl *partition.Plan, l int) ([]step, []int, int, error) {
	c := pl.Circuit
	n := c.NumQubits
	pos := identityPos(n)
	relayouts := 0
	steps := make([]step, 0, len(pl.Parts))
	for _, part := range pl.Parts {
		var st step
		needs := false
		for _, q := range part.Qubits {
			if pos[q] >= l {
				needs = true
				break
			}
		}
		if needs {
			newPos := relayoutFor(pos, part.Qubits, l, n)
			st.oldPos, st.newPos = pos, newPos
			pos = newPos
			relayouts++
		}
		cur := pos
		gates := make([]gate.Gate, 0, len(part.GateIndices))
		for _, gi := range part.GateIndices {
			gates = append(gates, c.Gates[gi].Remap(func(q int) int { return cur[q] }))
		}
		var err error
		if _, st.ops, err = fuse.Lower(gates, l, true); err != nil {
			return nil, nil, 0, fmt.Errorf("dist: part %d: %w", part.Index, err)
		}
		steps = append(steps, st)
	}
	return steps, pos, relayouts, nil
}

// relayoutFor rotates the layout so every part qubit occupies a local
// position (< l), evicting non-part qubits from the lowest candidate
// positions deterministically.
func relayoutFor(pos []int, partQubits []int, l, n int) []int {
	newPos := append([]int(nil), pos...)
	inPart := make([]bool, n)
	for _, q := range partQubits {
		inPart[q] = true
	}
	occupant := make([]int, n) // position -> qubit
	for q, p := range pos {
		occupant[p] = q
	}
	var victims []int // local positions holding non-part qubits, ascending
	for p := 0; p < l; p++ {
		if !inPart[occupant[p]] {
			victims = append(victims, p)
		}
	}
	vi := 0
	for _, q := range partQubits { // ascending (partition.Part.Qubits is sorted)
		if pos[q] < l {
			continue
		}
		v := victims[vi]
		vi++
		newPos[occupant[v]] = pos[q]
		newPos[q] = v
	}
	return newPos
}

// relayout redistributes the slab from one layout to another with a single
// all-to-all-v: each amplitude's destination follows the bit permutation
// that moves every old position to its new position. The permutation routes
// every bit independently, so it distributes over the disjoint low (local
// offset) and high (source rank) bit ranges: remap(off | r<<l) =
// rlo[off] | rhi[r]. Both sides of the exchange run in O(2^l) — the receive
// side replays each source's ascending-offset send order from precomputed
// buckets instead of rescanning the slab per source rank.
func relayout(cm *mpi.Comm, local []complex128, oldPos, newPos []int, l, tag int) []complex128 {
	n := len(oldPos)
	np := make([]int, n) // np[op] = new position of the bit at old position op
	for q := 0; q < n; q++ {
		np[oldPos[q]] = newPos[q]
	}
	size := len(local)
	ranks := cm.Size()
	me := cm.Rank()
	mask := size - 1

	// rlo[off]: routed image of the low (offset) bits; rhi[r]: routed image
	// of the high (rank) bits. groups[h] lists, ascending, the offsets whose
	// low bits land on high-bit pattern h — the amplitudes every rank sends
	// to destination h | (rhi[sender]>>l).
	rlo := make([]int, size)
	groups := make([][]int, ranks)
	for off := 0; off < size; off++ {
		v := 0
		for i := 0; i < l; i++ {
			v |= (off >> uint(i) & 1) << uint(np[i])
		}
		rlo[off] = v
		h := v >> uint(l)
		groups[h] = append(groups[h], off)
	}
	rhi := make([]int, ranks)
	for r := 0; r < ranks; r++ {
		v := 0
		for i := l; i < n; i++ {
			v |= (r >> uint(i-l) & 1) << uint(np[i])
		}
		rhi[r] = v
	}

	bufs := make([][]complex128, ranks)
	myHi := rhi[me] >> uint(l)
	for off := 0; off < size; off++ {
		dst := rlo[off]>>uint(l) | myHi
		bufs[dst] = append(bufs[dst], local[off])
	}
	out := cm.Alltoallv(tag, bufs)
	next := make([]complex128, size)
	for src := 0; src < ranks; src++ {
		buf := out[src]
		if len(buf) == 0 {
			continue
		}
		// src sent me the offsets whose low bits supply exactly the high
		// bits of me that src's rank bits don't (the two images are
		// disjoint), in ascending-offset order.
		hi := rhi[src] >> uint(l)
		if me&hi != hi {
			continue
		}
		// buf order mirrors src's ascending-offset send order.
		for idx, off := range groups[me&^hi] {
			next[(rlo[off]|rhi[src])&mask] = buf[idx]
		}
	}
	return next
}

func identityPos(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

func identityLayout(pos []int) bool {
	for i, p := range pos {
		if p != i {
			return false
		}
	}
	return true
}
