package hier

import (
	"math/bits"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/sv"
)

// supportFormula predicts from the plan alone what executing it from
// |0…0⟩ costs per part: the sweeps run, the sweeps skipped and the bytes
// gather and scatter copy. A qubit stays clear until a non-diagonal gate
// that is not controlled on a clear qubit targets it — with fusion on, until
// a fused dense block holds it. A part runs the sweeps that set none of the
// clear qubits outside it, and a non-view part copies 2^w amplitudes in and
// out per sweep run.
func supportFormula(t *testing.T, pl *partition.Plan, opts Options) (run, skipped, bytes []int64) {
	t.Helper()
	n := pl.Circuit.NumQubits
	clear := 1<<uint(n) - 1
	mask := func(qs []int) int {
		m := 0
		for _, q := range qs {
			m |= 1 << uint(q)
		}
		return m
	}
	for _, part := range pl.Parts {
		w := len(part.Qubits)
		live := int64(1) << uint(n-bits.OnesCount(uint(clear|mask(part.Qubits))))
		run = append(run, live)
		skipped = append(skipped, int64(1)<<uint(n-w)-live)
		moved := 2 * 16 * live << uint(w)
		if part.Qubits[w-1] == w-1 {
			moved = 0
		}
		bytes = append(bytes, moved)

		gates := make([]gate.Gate, len(part.GateIndices))
		for i, gi := range part.GateIndices {
			gates[i] = pl.Circuit.Gates[gi]
		}
		blocks := make([]fuse.Block, len(gates))
		for i, g := range gates {
			blocks[i] = fuse.Block{Kind: fuse.Single, Gates: []gate.Gate{g}}
		}
		if opts.Fuse {
			var err error
			if blocks, err = fuse.Fuse(gates, fuse.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range blocks {
			switch g := b.Gates[0]; {
			case b.Kind == fuse.Dense:
				clear &^= mask(b.Qubits)
			case b.Kind == fuse.Single && mask(g.Controls())&clear == 0 && !gate.IsDiagonal(g):
				clear &^= mask(g.Targets())
			}
		}
	}
	return run, skipped, bytes
}

// checkFormula executes the plan from |0…0⟩ and holds every part's metrics
// to supportFormula. It returns the metrics.
func checkFormula(t *testing.T, pl *partition.Plan, opts Options) *Metrics {
	t.Helper()
	m, err := ExecutePlan(pl, sv.NewState(pl.Circuit.NumQubits), opts)
	if err != nil {
		t.Fatal(err)
	}
	run, skipped, bytes := supportFormula(t, pl, opts)
	var sweeps, skips, moved int64
	for i, ps := range m.PerPart {
		if ps.Sweeps != run[i] || ps.SkippedSweeps != skipped[i] || ps.BytesMoved != bytes[i] {
			t.Errorf("%s part %d: %d sweeps, %d skipped, %d bytes; formula %d, %d, %d",
				pl.Circuit.Name, i, ps.Sweeps, ps.SkippedSweeps, ps.BytesMoved, run[i], skipped[i], bytes[i])
		}
		sweeps, skips, moved = sweeps+run[i], skips+skipped[i], moved+bytes[i]
	}
	if m.Sweeps != sweeps || m.SkippedSweeps != skips || m.BytesMoved != moved {
		t.Errorf("%s: totals %d/%d/%d, formula %d/%d/%d", pl.Circuit.Name,
			m.Sweeps, m.SkippedSweeps, m.BytesMoved, sweeps, skips, moved)
	}
	return m
}

// TestSupportIsTheFormula pins the support-aware executor on the plans the
// repository benchmark's cold-hier workload runs — qft-21 and ising-21 at
// Lm=16 under dagP — to the state-free prediction: executed sweeps, skipped
// sweeps and bytes moved, part by part, fused as the benchmark runs them and
// per gate.
func TestSupportIsTheFormula(t *testing.T) {
	if testing.Short() {
		t.Skip("21-qubit states")
	}
	for _, c := range []*circuit.Circuit{circuit.QFT(21), circuit.Ising(21, 4)} {
		pl, err := dagp.Partitioner{Opts: dagp.Options{Seed: 2}}.Partition(dag.FromCircuit(c), 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, fused := range []bool{true, false} {
			m := checkFormula(t, pl, Options{Fuse: fused})
			if m.SkippedSweeps == 0 {
				t.Errorf("%s fuse=%v: no sweep skipped", c.Name, fused)
			}
			t.Logf("%s fuse=%v: %d parts, %d sweeps run, %d skipped, %.1f MiB moved",
				c.Name, fused, m.Parts, m.Sweeps, m.SkippedSweeps, float64(m.BytesMoved)/(1<<20))
		}
	}
}

// TestSupportFormulaSmall is the same check on small plans of every
// strategy, at every worker split: the -race form of the formula test.
func TestSupportFormulaSmall(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuit.QFT(10), circuit.Ising(10, 2), circuit.CC(10), circuit.Grover(5, 1)} {
		for _, s := range []partition.Strategy{partition.Nat{}, partition.DFS{Seed: 1}, dagp.Partitioner{}} {
			pl, err := s.Partition(dag.FromCircuit(c), 5)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 3; workers++ {
				for _, fused := range []bool{true, false} {
					checkFormula(t, pl, Options{Fuse: fused, Workers: workers})
				}
			}
		}
	}
}
