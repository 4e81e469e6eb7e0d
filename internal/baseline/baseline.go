// Package baseline implements the distributed state-vector scheme of the
// paper's comparison system, Intel IQS / qHiPSTER: a fixed qubit layout
// (low l qubits local, high p qubits select the rank) where every gate on a
// process (global) qubit triggers a pairwise slab exchange with the partner
// rank, and gates on local qubits run communication-free. Circuits are
// first lowered to the {single-qubit, CX} basis, matching IQS's native gate
// set. This is the system HiSVSIM's per-part single relayout is measured
// against in Figs. 5–9.
package baseline

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"hisvsim/internal/circuit"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/mpi"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// fullyLocal reports whether every qubit of the gate lies below the local
// boundary (no communication and no rank-dependent control behavior).
func fullyLocal(g gate.Gate, l int) bool {
	for _, q := range g.Qubits {
		if q >= l {
			return false
		}
	}
	return true
}

// Config describes a baseline run.
type Config struct {
	// Ctx, when non-nil, is polled at gate boundaries: a cancelled or
	// timed-out context aborts the run with the context's error. The abort
	// gate is latched so every simulated rank leaves at the same boundary
	// (no rank abandons a partner mid-exchange).
	Ctx context.Context
	// Ranks must be a power of two.
	Ranks int
	// Model is the communication cost model (default mpi.HDR100()).
	Model mpi.CostModel
	// Workers bounds per-rank kernel parallelism.
	Workers int
	// GatherResult collects the full state at rank 0.
	GatherResult bool
	// KeepGates skips the {1q, cx} lowering and simulates gates natively
	// (multi-target global gates are then unsupported).
	KeepGates bool
	// Fuse coalesces runs of fully-local gates between communication points
	// into fused blocks (gates touching a global qubit stay per-gate).
	Fuse bool
	// MaxFuseQubits caps fused-block support (0 = fuse default).
	MaxFuseQubits int
}

// Result of a baseline run.
type Result struct {
	Stats     []mpi.Stats
	State     *sv.State
	Exchanges int   // pairwise slab exchanges performed (per rank)
	BytesComm int64 // total bytes sent across ranks
	Gates     int   // gates simulated after lowering
}

// Run simulates the circuit with the IQS-style fixed-layout scheme.
func Run(c *circuit.Circuit, cfg Config) (*Result, error) {
	if cfg.Ranks < 1 || bits.OnesCount(uint(cfg.Ranks)) != 1 {
		return nil, fmt.Errorf("baseline: ranks must be a power of two, got %d", cfg.Ranks)
	}
	p := bits.TrailingZeros(uint(cfg.Ranks))
	n := c.NumQubits
	l := n - p
	if l < 1 {
		return nil, fmt.Errorf("baseline: %d ranks leave no local qubits for %d-qubit circuit", cfg.Ranks, n)
	}
	gates := c.Gates
	if !cfg.KeepGates {
		gates = gate.DecomposeAll(c.Gates)
	}
	for gi, g := range gates {
		if len(g.Targets()) != 1 && !fullyLocal(g, l) {
			// Global multi-target gates need pair exchanges per target;
			// the lowering avoids this case entirely.
			return nil, fmt.Errorf("baseline: gate %d (%s) has %d targets with global qubits; lower the circuit first",
				gi, g.Name, len(g.Targets()))
		}
	}
	model := cfg.Model
	if model == (mpi.CostModel{}) {
		model = mpi.HDR100()
	}

	res := &Result{Gates: len(gates)}
	exchanges := make([]int, cfg.Ranks)
	gathered := make([][]complex128, cfg.Ranks)

	// Pre-fuse the runs of fully-local gates between communication points
	// once; the fused schedule is rank-independent and shared read-only.
	var localRuns map[int][]sv.Op // lowered run, keyed by index of its first gate
	if cfg.Fuse {
		localRuns = map[int][]sv.Op{}
		runStart := -1
		flush := func(end int) error {
			if runStart < 0 {
				return nil
			}
			blocks, err := fuse.Fuse(gates[runStart:end], fuse.Options{MaxQubits: cfg.MaxFuseQubits})
			if err != nil {
				return err
			}
			localRuns[runStart], err = fuse.Plan(blocks, l)
			runStart = -1
			return err
		}
		for gi, g := range gates {
			if fullyLocal(g, l) {
				if runStart < 0 {
					runStart = gi
				}
				continue
			}
			if err := flush(gi); err != nil {
				return res, err
			}
		}
		if err := flush(len(gates)); err != nil {
			return res, err
		}
	}

	// gateGate latches one go/abort decision per gate index (the same
	// scheme dist uses per step): the FIRST rank to reach a boundary polls
	// the context and publishes the verdict, every other rank follows it —
	// per-rank polling could strand a partner already blocked inside the
	// same gate's pairwise exchange.
	var gateGate []atomic.Int32 // 0 undecided, 1 go, 2 abort
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return res, err
		}
		gateGate = make([]atomic.Int32, len(gates))
	}

	stats, err := mpi.Run(cfg.Ranks, model, func(cm *mpi.Comm) error {
		rank := cm.Rank()
		local := make([]complex128, 1<<uint(l))
		if rank == 0 {
			local[0] = 1
		}
		st := sv.NewStateRaw(local)
		st.Workers = cfg.Workers
		st.Prof = prof.FromContext(cfg.Ctx)

		for gi := 0; gi < len(gates); gi++ {
			if gateGate != nil {
				verdict := gateGate[gi].Load()
				if verdict == 0 {
					want := int32(1)
					if cfg.Ctx.Err() != nil {
						want = 2
					}
					if gateGate[gi].CompareAndSwap(0, want) {
						verdict = want
					} else {
						verdict = gateGate[gi].Load()
					}
				}
				if verdict == 2 {
					if err := cfg.Ctx.Err(); err != nil {
						return err
					}
					return context.Canceled
				}
			}
			g := gates[gi]
			if run, ok := localRuns[gi]; ok {
				// Fused run of fully-local gates: skip past the whole run.
				t0 := time.Now()
				st.ApplyOps(run)
				cm.RecordCompute(time.Since(t0).Seconds())
				for gi < len(gates) && fullyLocal(gates[gi], l) {
					gi++
				}
				gi--
				continue
			}
			if fullyLocal(g, l) {
				t0 := time.Now()
				if err := st.ApplyGate(g); err != nil {
					return err
				}
				cm.RecordCompute(time.Since(t0).Seconds())
				continue
			}
			// Split controls into local mask and global requirement.
			var localCtrl int
			globalOK := true
			for _, q := range g.Controls() {
				if q < l {
					localCtrl |= 1 << uint(q)
				} else if rank>>uint(q-l)&1 == 0 {
					globalOK = false
				}
			}
			tq := g.Targets()[0]
			if tq < l {
				// Local target, some global control: apply only on ranks
				// whose global control bits are all one. No communication.
				if !globalOK {
					continue
				}
				t0 := time.Now()
				applyLocalControlled(local, tq, localCtrl, g.BaseMatrix())
				cm.RecordCompute(time.Since(t0).Seconds())
				continue
			}
			// Global target: pairwise slab exchange with the partner rank.
			// Global controls are identical on both partners (they differ
			// only in the target bit), so an unsatisfied control skips the
			// exchange consistently on both sides.
			if !globalOK {
				continue
			}
			partner := rank ^ 1<<uint(tq-l)
			other := cm.Exchange(partner, gi, local)
			exchangesInc(exchanges, rank)
			myBit := rank >> uint(tq-l) & 1
			m := g.BaseMatrix()
			t0 := time.Now()
			combinePair(local, other, myBit, localCtrl, m)
			cm.RecordCompute(time.Since(t0).Seconds())
		}

		if cfg.GatherResult {
			out := cm.Gather(0, 1<<20, local)
			if rank == 0 {
				copy(gathered, out)
			}
		}
		return nil
	})
	res.Stats = stats
	if err != nil {
		return res, err
	}
	res.Exchanges = exchanges[0]
	res.BytesComm = mpi.TotalBytes(stats)
	if cfg.GatherResult {
		amps := make([]complex128, 1<<uint(n))
		for r := 0; r < cfg.Ranks; r++ {
			copy(amps[r<<uint(l):], gathered[r])
		}
		res.State = sv.NewStateRaw(amps)
	}
	return res, nil
}

func exchangesInc(ex []int, rank int) { ex[rank]++ }

// applyLocalControlled applies a 2x2 matrix on a local target with a local
// control mask, in place.
func applyLocalControlled(amps []complex128, t, ctrlMask int, m gate.Matrix) {
	m00, m01, m10, m11 := m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1)
	tbit := 1 << uint(t)
	for i0 := 0; i0 < len(amps); i0++ {
		if i0&tbit != 0 || i0&ctrlMask != ctrlMask {
			continue
		}
		i1 := i0 | tbit
		a0, a1 := amps[i0], amps[i1]
		amps[i0] = m00*a0 + m01*a1
		amps[i1] = m10*a0 + m11*a1
	}
}

// combinePair updates this rank's slab given the partner's slab for a gate
// whose target is the global qubit distinguishing the pair. myBit is this
// rank's value of the target bit; entries with unsatisfied local controls
// are left untouched.
func combinePair(mine, other []complex128, myBit, ctrlMask int, m gate.Matrix) {
	mb0 := m.At(myBit, 0)
	mb1 := m.At(myBit, 1)
	for o := range mine {
		if o&ctrlMask != ctrlMask {
			continue
		}
		var a0, a1 complex128
		if myBit == 0 {
			a0, a1 = mine[o], other[o]
		} else {
			a0, a1 = other[o], mine[o]
		}
		mine[o] = mb0*a0 + mb1*a1
	}
}
