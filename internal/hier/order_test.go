package hier

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"hisvsim/internal/circuit"
	"hisvsim/internal/dag"
	"hisvsim/internal/fuse"
	"hisvsim/internal/gate"
	"hisvsim/internal/partition"
	"hisvsim/internal/partition/dagp"
	"hisvsim/internal/prof"
	"hisvsim/internal/sv"
)

// checkOrder fails unless order is a permutation of gis that keeps every
// qubit's gates in their circuit sequence.
func checkOrder(t *testing.T, c *circuit.Circuit, gis, order []int) {
	t.Helper()
	if !slices.Equal(slices.Sorted(slices.Values(order)), gis) {
		t.Fatalf("%s: order %v is not a permutation of %v", c.Name, order, gis)
	}
	last := make([]int, c.NumQubits) // the circuit index of the last gate seen on each qubit, plus one
	for _, gi := range order {
		for _, q := range c.Gates[gi].Qubits {
			if gi < last[q] {
				t.Fatalf("%s: gate %d runs after gate %d on qubit %d", c.Name, gi, last[q]-1, q)
			}
			last[q] = gi + 1
		}
	}
}

// On random circuits and random parts of them, from random clear qubits,
// the support-first order is a permutation of the part's gates that keeps
// every qubit's gate sequence; preparePart records it.
func TestSupportFirstKeepsQubitSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reordered := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		c := circuit.Random(n, 1+rng.Intn(60), int64(trial))
		var gis []int
		var gates []gate.Gate
		for i, g := range c.Gates {
			if trial%2 == 0 || rng.Intn(3) > 0 {
				gis, gates = append(gis, i), append(gates, g)
			}
		}
		pos := supportFirst(n, gates, rng.Intn(1<<uint(n)-1)+1)
		if pos == nil {
			continue
		}
		reordered++
		order := make([]int, len(pos))
		for i, p := range pos {
			order[i] = gis[p]
		}
		checkOrder(t, c, gis, order)
		if slices.Equal(order, gis) {
			t.Fatalf("%s: the circuit order came back non-nil", c.Name)
		}
	}
	if reordered < 50 {
		t.Errorf("only %d of 200 random parts were reordered", reordered)
	}
	for _, fused := range []bool{false, true} {
		c := circuit.Random(8, 60, 3)
		pl, err := dagp.Partitioner{}.Partition(dag.FromCircuit(c), 5)
		if err != nil {
			t.Fatal(err)
		}
		clearBits := 1<<8 - 1
		for _, part := range pl.Parts {
			pp, err := preparePart(c, part, clearBits, Options{Fuse: fused})
			if err != nil {
				t.Fatal(err)
			}
			checkOrder(t, c, part.GateIndices, pp.order)
			clearBits = pp.clearAfter
		}
	}
}

// With no clear qubit in the part the order is the circuit order: a dense
// start, and a start whose only clear qubits lie outside the part.
func TestSupportFirstWithoutClearSlotIsIdentity(t *testing.T) {
	c := circuit.Random(8, 60, 9)
	gis := make([]int, len(c.Gates))
	for i := range gis {
		gis[i] = i
	}
	if pos := supportFirst(c.NumQubits, c.Gates, 0); pos != nil {
		t.Fatalf("no clear qubit: order %v, want the circuit order", pos)
	}
	part := partition.NewPart(c, 0, gis)
	for _, clearBits := range []int{0, 1 << 9, 1<<9 | 1<<11} { // qubits 9 and 11 are not the part's
		for _, fused := range []bool{false, true} {
			pp, err := preparePart(c, part, clearBits, Options{Fuse: fused})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pp.order, gis) {
				t.Errorf("clear %b fuse=%v: order %v, want the circuit order", clearBits, fused, pp.order)
			}
		}
	}
}

// circuitOrder is what executing the plan from |0…0⟩ costs with every part
// lowered in circuit order and pinned by sv.PinZero: the kernel amplitudes
// walked (each live sweep replays the part's pinned ops once) and the live
// sweeps of each part.
func circuitOrder(t *testing.T, pl *partition.Plan, opts Options) (amps int64, sweeps []int64) {
	t.Helper()
	n := pl.Circuit.NumQubits
	clear := 1<<uint(n) - 1
	for _, part := range pl.Parts {
		_, ops, err := fuse.Lower(slotGates(pl.Circuit, part, part.GateIndices), len(part.Qubits), opts.Fuse)
		if err != nil {
			t.Fatal(err)
		}
		own, slots := 0, 0
		for s, q := range part.Qubits {
			own |= 1 << uint(q)
			slots |= (clear >> uint(q) & 1) << uint(s)
		}
		pinned, left := sv.PinZero(ops, slots)
		var perSweep int64
		for i := range pinned {
			perSweep += pinned[i].Amps()
		}
		live := int64(1) << uint(n-bits.OnesCount(uint(clear|own)))
		amps, sweeps = amps+perSweep*live, append(sweeps, live)
		clear &^= own
		for s, q := range part.Qubits {
			clear |= (left >> uint(s) & 1) << uint(q)
		}
	}
	return amps, sweeps
}

// TestSupportFirstNeverWalksMore is the work grid: every family at 12 and 14
// qubits from |0…0⟩, under the flagless default (one part), dagP and DFS at
// Lm = n−4, fused and per gate. The kernel amplitudes the profile records
// are never above what the circuit-order lowering walks, and the default
// walks strictly fewer on qft, ising and qaoa. Every part runs the sweeps it
// runs in circuit order: the order never changes what a part leaves clear.
func TestSupportFirstNeverWalksMore(t *testing.T) {
	var total, before int64
	for _, fam := range circuit.Families() {
		for _, n := range []int{12, 14} {
			c, err := circuit.Named(fam, n)
			if err != nil {
				t.Fatal(err)
			}
			n := c.NumQubits
			for _, s := range []struct {
				name  string
				strat partition.Strategy
				lm    int
			}{
				{"default", dagp.Partitioner{}, n},
				{"dagp", dagp.Partitioner{}, n - 4},
				{"dfs", partition.DFS{Seed: 1}, n - 4},
			} {
				pl, err := s.strat.Partition(dag.FromCircuit(c), s.lm)
				if err != nil {
					t.Fatal(err)
				}
				for _, fused := range []bool{false, true} {
					name := fmt.Sprintf("%s-%d/%s/fuse=%v", fam, n, s.name, fused)
					opts := Options{Fuse: fused}
					st := sv.NewState(n)
					st.Prof = prof.NewRecorder()
					m, err := ExecutePlan(pl, st, opts)
					if err != nil {
						t.Fatal(err)
					}
					var got int64
					for _, k := range st.Prof.Snapshot() {
						got += k.Amps
					}
					want, sweeps := circuitOrder(t, pl, opts)
					for i, ps := range m.PerPart {
						if ps.Sweeps != sweeps[i] {
							t.Errorf("%s part %d: %d sweeps, %d in circuit order", name, i, ps.Sweeps, sweeps[i])
						}
					}
					total, before = total+got, before+want
					t.Logf("%s: %d parts, %d amps, circuit order %d", name, pl.NumParts(), got, want)
					if got > want {
						t.Errorf("%s: %d kernel amplitudes, circuit order walks %d", name, got, want)
					}
					switch fam {
					case "qft", "ising", "qaoa":
						if s.name == "default" && got >= want {
							t.Errorf("%s: %d kernel amplitudes, not below the circuit order's %d", name, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("grid: %d kernel amplitudes, circuit order %d (%.1f%% fewer)", total, before, 100*float64(before-total)/float64(before))
}
